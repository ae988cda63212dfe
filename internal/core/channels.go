package core

import "repro/internal/sim"

// NamedChannel is one entry of the covert-channel table: the name that
// selects the channel, the description GET /v1/scenarios lists for it, and
// the function that runs it.
type NamedChannel struct {
	Name        string
	Description string
	Run         func(m *sim.Machine, msg []bool, opt Options) (Result, error)
}

// Channels returns the covert-channel table in presentation order. The
// experiment scenarios, Figure 9, impact-covert and the covertchannel
// example all read it, so a channel is bound to its name here alone.
// RunPnMAdaptive and RunPnMPipelined are not listed: nothing selects them
// by name.
func Channels() []NamedChannel {
	return []NamedChannel{
		{"pnm", "IMPACT PnM covert channel (PEI row-buffer probes)", RunPnM},
		{"pum", "IMPACT PuM covert channel (RowClone row-buffer probes)", RunPuM},
		{"direct", "direct-access covert channel (uncached loads)", RunDirect},
		{"drama-clflush", "DRAMA baseline, clflush variant", RunDRAMAClflush},
		{"drama-eviction", "DRAMA baseline, eviction-set variant", RunDRAMAEviction},
		{"dma", "DMA-engine covert channel", RunDMA},
	}
}

// ChannelByName returns the entry of Channels called name.
func ChannelByName(name string) (NamedChannel, bool) {
	for _, ch := range Channels() {
		if ch.Name == name {
			return ch, true
		}
	}
	return NamedChannel{}, false
}
