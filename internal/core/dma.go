package core

import (
	"repro/internal/sim"
)

// RunDMA executes the row-buffer covert channel over the (R)DMA engine
// (Section 5.2.2 comparison point iii): transfers bypass the caches, but
// every operation drags the deep OS software stack — syscall, descriptor
// setup, completion — which caps throughput around three orders of
// magnitude of cycles per bit regardless of cache configuration.
func RunDMA(m *sim.Machine, msg []bool, opt Options) (Result, error) {
	return transmit(m, msg, opt, func(s, r *sim.Core) (channel, error) {
		banks := opt.banksOrDefault(m)
		send := func(bank int) { s.DMATransfer(m.AddrFor(bank, senderRow, 0)) }
		receive := func(bank int) { r.DMATransfer(m.AddrFor(bank, receiverInitRow, 0)) }
		warmup(banks, send, receive)
		probe := func(bank int) int64 {
			t0 := r.Rdtscp()
			receive(bank)
			return r.Rdtscp() - t0
		}
		cost := m.Config().Costs.SenderComputeCost
		return channel{
			name:      "DMA",
			banks:     banks,
			threshold: calibrated(m, r, opt, banks[0], probe),
			send: func(b batch) error {
				return sendBits(s, cost, b, func(bank int) error { send(bank); return nil })
			},
			probe: func(_, bank int) (int64, error) { return probe(bank), nil },
		}, nil
	})
}
