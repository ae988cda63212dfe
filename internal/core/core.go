// Package core implements the paper's primary contribution: the IMPACT
// family of high-throughput main-memory timing attacks. It provides the
// IMPACT-PnM covert channel (PIM-enabled instructions, Section 4.1), the
// IMPACT-PuM covert channel (RowClone, Section 4.2), the comparison
// baselines (DRAMA-clflush, DRAMA-eviction, DMA engine, and the idealized
// direct-memory-access attack of Section 3.3), and the side-channel attacker
// of Section 4.3.
//
// All attacks run against a sim.Machine and measure simulated cycles only.
// Every covert channel runs the one batch protocol of transmit (channel.go);
// docs/architecture.md, "Covert-channel protocol", describes what each
// channel supplies and how the channels differ.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrProtocol indicates the sender/receiver protocol desynchronized (a bug,
// surfaced instead of silently corrupting results).
var ErrProtocol = errors.New("impact: sender/receiver protocol desynchronized")

// DefaultThresholdCycles is the paper's row-buffer conflict decode threshold
// (Section 6.1: 150 cycles).
const DefaultThresholdCycles = 150

// Options configures a covert-channel run.
type Options struct {
	// Banks are the DRAM banks used, one per bit of a batch. Defaults to
	// banks 0..15.
	Banks []int
	// Threshold is the decode threshold in cycles; 0 selects the
	// channel's default (150 for the PIM channels, auto-calibrated for
	// the cache-path baselines).
	Threshold int64
	// RecordLatencies keeps every receiver-measured probe latency in the
	// result (Figure 8).
	RecordLatencies bool
	// MaintenanceStall, when positive, enables the receiver-side filter
	// of Section 8.4: RowHammer-mitigation actions (RFM/PRAC) stall an
	// access by a fixed, specification-known amount far larger than a
	// row-buffer conflict, so a receiver subtracts the stall from any
	// measurement that can only be explained by one before thresholding.
	MaintenanceStall int64
}

// fixedThreshold is the decode threshold of the PIM channels, which do not
// calibrate: Options.Threshold, or the paper's 150 cycles when it is unset.
func (o Options) fixedThreshold() int64 {
	if o.Threshold != 0 {
		return o.Threshold
	}
	return DefaultThresholdCycles
}

// banksOrDefault returns the configured banks or the first 16 banks.
func (o Options) banksOrDefault(m *sim.Machine) []int {
	if len(o.Banks) > 0 {
		out := make([]int, len(o.Banks))
		copy(out, o.Banks)
		return out
	}
	n := 16
	if total := m.Device().NumBanks(); total < n {
		n = total
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Result reports one covert-channel transmission.
type Result struct {
	// Channel names the attack variant.
	Channel string
	// Bits is the message length; Correct counts bits decoded correctly.
	Bits    int
	Correct int
	// Cycles is the end-to-end transmission time on the simulated clock.
	Cycles int64
	// SenderCycles and ReceiverCycles are the busy times of each routine
	// (Figure 10 breakdown); they exclude synchronization waits.
	SenderCycles   int64
	ReceiverCycles int64
	// ThroughputMbps counts only correctly leaked bits, matching the
	// paper's methodology (Section 5.2.3).
	ThroughputMbps float64
	// EffectiveThroughputMbps additionally discounts by binary-symmetric-
	// channel capacity, 1 - H2(errorRate): a channel decoding everything
	// as one symbol is 50% "correct" yet carries zero information. The
	// defense evaluation uses this metric so constant-time padding shows
	// up as a complete break.
	EffectiveThroughputMbps float64
	// ErrorRate is the fraction of bits decoded incorrectly.
	ErrorRate float64
	// Latencies holds the receiver-measured latency of every probe when
	// Options.RecordLatencies is set (Figure 8).
	Latencies []int64
	// Decoded is the bit string the receiver recovered.
	Decoded []bool
}

// finalize computes derived metrics.
func (r *Result) finalize(msg, decoded []bool, cycles int64) {
	r.Bits = len(msg)
	r.Decoded = decoded
	for i := range msg {
		if i < len(decoded) && decoded[i] == msg[i] {
			r.Correct++
		}
	}
	r.Cycles = cycles
	r.ThroughputMbps = sim.ThroughputMbps(int64(r.Correct), cycles)
	if r.Bits > 0 {
		r.ErrorRate = float64(r.Bits-r.Correct) / float64(r.Bits)
	}
	r.EffectiveThroughputMbps = r.ThroughputMbps * bscCapacity(r.ErrorRate)
}

// bscCapacity returns 1 - H2(p), the capacity factor of a binary symmetric
// channel with crossover probability p.
func bscCapacity(p float64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 0.5 {
		return 0
	}
	h := -p*math.Log2(p) - (1-p)*math.Log2(1-p)
	return 1 - h
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d bits, %.2f Mb/s, error %.2f%%, %d cycles",
		r.Channel, r.Bits, r.ThroughputMbps, r.ErrorRate*100, r.Cycles)
}

// RandomMessage generates a deterministic pseudo-random bit string.
func RandomMessage(n int, seed uint64) []bool {
	rng := stats.NewRNG(seed)
	msg := make([]bool, n)
	for i := range msg {
		msg[i] = rng.Bool(0.5)
	}
	return msg
}

// BitsFromBytes expands a byte slice into its bits, MSB first.
func BitsFromBytes(data []byte) []bool {
	out := make([]bool, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, b>>uint(i)&1 == 1)
		}
	}
	return out
}

// BytesFromBits packs bits (MSB first) back into bytes; trailing bits that
// do not fill a byte are dropped.
func BytesFromBits(bits []bool) []byte {
	out := make([]byte, 0, len(bits)/8)
	for i := 0; i+8 <= len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			b <<= 1
			if bits[i+j] {
				b |= 1
			}
		}
		out = append(out, b)
	}
	return out
}
