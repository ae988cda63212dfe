package core

import (
	"repro/internal/sim"
)

// RunPnMPipelined executes the IMPACT-PnM covert channel with the overlap
// the paper describes (Section 4.1: the parties "overlap the latencies of
// their operations to increase the throughput of the attack"). The bank set
// is split into two halves: while the receiver probes batch k in one half,
// the sender transmits batch k+1 into the other, so the routines run
// concurrently without ever racing on a bank. Each batch carries half as
// many bits, but the batch period shrinks to the slower routine instead of
// the sum of both.
func RunPnMPipelined(m *sim.Machine, msg []bool, opt Options) (Result, error) {
	banks := opt.banksOrDefault(m)
	if len(banks) < 2 {
		// Nothing to pipeline over; fall back to the serial protocol.
		return RunPnM(m, msg, opt)
	}
	half := len(banks) / 2
	groups := [2][]int{banks[:half], banks[half : 2*half]}
	t, err := begin(m, msg, opt, func(s, r *sim.Core) (channel, error) {
		return pnm(m, s, r, opt, "IMPACT-PnM-pipelined", banks[:2*half])
	})
	if err != nil {
		return Result{}, err
	}
	costs := m.Config().Costs

	// Host order stays send(k) before recv(k), so bank state is always
	// consistent; the overlap lives in the clocks — the sender's batch
	// k+1 occupies the same simulated interval as the receiver's batch k
	// because they touch disjoint banks. There are no semaphores: the
	// receiver waits for the sender's post directly.
	for i := 0; i*half < len(msg); i++ {
		// Each group carries every second batch, so its cache-line
		// cursor advances every second batch.
		b := batch{k: i / 2, bits: msg[i*half : min(i*half+half, len(msg))], banks: groups[i%2]}
		if err := t.sendBatch(b); err != nil {
			return Result{}, err
		}
		t.sender.Advance(costs.SemPost)
		t.receiver.Advance(costs.SemWait)
		t.receiver.AdvanceTo(t.sender.Now())
		if err := t.receiveBatch(b); err != nil {
			return Result{}, err
		}
		m.AdvanceNoise(t.receiver.Now())
	}
	return t.finish(msg, max(t.sender.Now(), t.receiver.Now())), nil
}
