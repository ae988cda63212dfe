package core

import (
	"repro/internal/sim"
)

// RunDRAMAClflush executes the DRAMA row-buffer covert channel using clflush
// to bypass the cache hierarchy (Pessl et al., USENIX Security'16; the
// paper's strongest prior-work baseline). Each bit costs both parties a
// flush and an uncached reload, and the flush path grows with LLC size —
// the effect Figures 2 and 9 quantify.
func RunDRAMAClflush(m *sim.Machine, msg []bool, opt Options) (Result, error) {
	return transmit(m, msg, opt, func(s, r *sim.Core) (channel, error) {
		return drama(m, s, r, opt, "DRAMA-clflush", opt.banksOrDefault(m),
			func(c *sim.Core, addr uint64) { c.Flush(addr) }), nil
	})
}

// RunDRAMAEviction executes the DRAMA covert channel using cache eviction
// sets instead of clflush (Liu et al.'s eviction-set technique). The channel
// uses half the banks and builds eviction sets from addresses mapping to the
// other half, so the eviction traffic does not trample the channel's own row
// state — a luxury the attacker pays for with many more memory requests,
// which is exactly why the paper finds this baseline slowest.
func RunDRAMAEviction(m *sim.Machine, msg []bool, opt Options) (Result, error) {
	return transmit(m, msg, opt, func(s, r *sim.Core) (channel, error) {
		banks := opt.banksOrDefault(m)
		if len(banks) > 1 {
			banks = banks[:(len(banks)+1)/2]
		}
		channelBanks := make(map[int]bool, len(banks))
		for _, b := range banks {
			channelBanks[b] = true
		}
		// Per-address eviction sets, filtered off the channel banks so
		// the eviction traffic does not trample the encoded row-buffer
		// states.
		ways := m.Config().LLCWays
		sets := make(map[uint64][]uint64, 2*len(banks))
		for _, bank := range banks {
			recv, send := m.AddrFor(bank, receiverInitRow, 0), m.AddrFor(bank, senderRow, 0)
			sets[recv] = buildFilteredEvictionSet(m, r, recv, ways, channelBanks)
			sets[send] = buildFilteredEvictionSet(m, s, send, ways, channelBanks)
		}
		mlp := m.Config().Costs.EvictionMLP
		return drama(m, s, r, opt, "DRAMA-eviction", banks, func(c *sim.Core, addr uint64) {
			for _, a := range sets[addr] {
				c.LoadOverlapped(a, 0x300, mlp)
			}
		}), nil
	})
}

// drama returns a DRAMA channel over banks, warmed up and calibrated: each
// party reaches DRAM by pushing its line out of the cache hierarchy with
// bypass and then reloading it, so the sender's reload drags its row into
// the row buffer and the receiver times its own reload.
func drama(m *sim.Machine, s, r *sim.Core, opt Options, name string, banks []int, bypass func(c *sim.Core, addr uint64)) channel {
	send := func(bank int) {
		addr := m.AddrFor(bank, senderRow, 0)
		bypass(s, addr)
		s.Load(addr, 0x200)
	}
	receive := func(bank int) {
		addr := m.AddrFor(bank, receiverInitRow, 0)
		bypass(r, addr)
		r.Load(addr, 0x100)
	}
	warmup(banks, send, receive)
	probe := func(bank int) int64 {
		addr := m.AddrFor(bank, receiverInitRow, 0)
		bypass(r, addr)
		t0 := r.Rdtscp()
		r.Load(addr, 0x100)
		return r.Rdtscp() - t0
	}
	cost := m.Config().Costs.SenderComputeCost
	return channel{
		name:      name,
		banks:     banks,
		threshold: calibrated(m, r, opt, banks[0], probe),
		send: func(b batch) error {
			return sendBits(s, cost, b, func(bank int) error { send(bank); return nil })
		},
		probe: func(_, bank int) (int64, error) { return probe(bank), nil },
	}
}

// buildFilteredEvictionSet returns n addresses congruent with target in the
// LLC but mapped to banks outside the channel set, so eviction traffic does
// not corrupt the row-buffer states the channel encodes in.
func buildFilteredEvictionSet(m *sim.Machine, c *sim.Core, target uint64, n int, exclude map[int]bool) []uint64 {
	candidates := c.Hierarchy().EvictionSet(target, n*len(exclude)*4+n)
	out := make([]uint64, 0, n)
	for _, a := range candidates {
		if exclude[m.Mapper().Map(a).Bank] {
			continue
		}
		out = append(out, a)
		if len(out) == n {
			break
		}
	}
	// If filtering starved the set (tiny LLCs), top up with unfiltered
	// candidates; the attack degrades, which is realistic.
	for i := 0; len(out) < n && i < len(candidates); i++ {
		out = append(out, candidates[i])
	}
	return out
}
