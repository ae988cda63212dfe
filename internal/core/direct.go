package core

import (
	"repro/internal/sim"
)

// RunDirect executes the idealized direct-memory-access attack of
// Section 3.3: each bit costs exactly one memory request on each side, with
// no cache lookups or evictions. The sender's requests are fire-and-forget
// (overlapped with the receiver, as the paper's throughput model assumes),
// so the channel is receiver-bound and independent of the cache
// configuration — the flat line of Figures 2 and 3.
func RunDirect(m *sim.Machine, msg []bool, opt Options) (Result, error) {
	return transmit(m, msg, opt, func(s, r *sim.Core) (channel, error) {
		banks := opt.banksOrDefault(m)
		load := func(bank int) { r.LoadUncached(m.AddrFor(bank, receiverInitRow, 0)) }
		// A denied warm-up activation resurfaces as an error on the
		// first transmitted 1 bit.
		warmup(banks, func(bank int) { _ = s.ActivateAsync(bank, senderRow) }, load)
		s.Fence()
		probe := func(bank int) int64 {
			t0 := r.Rdtscp()
			load(bank)
			return r.Rdtscp() - t0
		}
		return channel{
			name:        "DirectAccess",
			banks:       banks,
			threshold:   calibrated(m, r, opt, banks[0], probe),
			fenceSender: true,
			// One asynchronous memory request per 1 bit, no cache path
			// and no encoding work: the activation drains while the
			// sender moves on.
			send: func(b batch) error {
				return sendBits(s, 0, b, func(bank int) error { return s.ActivateAsync(bank, senderRow) })
			},
			// The receiver serializes around its timed load (the paper's
			// cpuid around rdtscp), outside the timed window.
			probe: func(_, bank int) (int64, error) {
				r.Serialize()
				lat := probe(bank)
				r.Serialize()
				return lat, nil
			},
		}, nil
	})
}
