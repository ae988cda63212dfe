package core

import (
	"repro/internal/sim"
)

// RunPuM executes the IMPACT-PuM covert channel of Section 4.2 (Listing 2):
// the sender transmits an M-bit batch with a single masked RowClone request
// that copies rows in the selected banks in parallel; the receiver decodes
// by timing a per-bank RowClone with the copy direction swapped. Bank-level
// parallelism on the sender side is the source of PuM's throughput advantage
// over PnM. Core 0 is the sender, core 1 the receiver.
func RunPuM(m *sim.Machine, msg []bool, opt Options) (Result, error) {
	return transmit(m, msg, opt, func(s, r *sim.Core) (channel, error) {
		banks := opt.banksOrDefault(m)
		if len(banks) > 64 {
			banks = banks[:64] // the mask is a uint64
		}
		// Step 1 (Listing 2 line 25): the receiver initializes all banks
		// with one full-mask RowClone, leaving its destination rows open.
		fullMask := uint64(1)<<uint(len(banks)) - 1
		if len(banks) == 64 {
			fullMask = ^uint64(0)
		}
		if _, err := r.RowCloneSubmit(banks, fullMask, receiverSrcRow, receiverDstRow); err != nil {
			return channel{}, err
		}
		r.Fence()
		cost := m.Config().Costs.MaskComputeCost
		return channel{
			name:          "IMPACT-PuM",
			banks:         banks,
			threshold:     opt.fixedThreshold(),
			stall:         opt.MaintenanceStall,
			fenceSender:   true,
			fenceReceiver: true,
			// Step 2: the sender builds the mask for the batch and issues
			// one RowClone request; the controller fans it out to the
			// masked banks in parallel (Listing 2 lines 15-22).
			send: func(b batch) error {
				var mask uint64
				for i, bit := range b.bits {
					if bit {
						mask |= 1 << uint(i)
					}
				}
				s.Advance(cost)
				_, err := s.RowCloneSubmit(b.banks, mask, senderSrcRow, senderDstRow)
				return err
			},
			// Step 3: the receiver times a RowClone in one bank (Listing
			// 2 lines 26-38). It swaps the copy direction every batch so
			// its probe finds the previous destination row still latched.
			probe: func(k, bank int) (int64, error) {
				src, dst := int64(receiverDstRow), int64(receiverSrcRow)
				if k%2 == 1 {
					src, dst = dst, src
				}
				t0 := r.Rdtscp()
				if _, err := r.RowCloneMeasure(bank, src, dst); err != nil {
					return 0, err
				}
				return r.Rdtscp() - t0, nil
			},
		}, nil
	})
}
