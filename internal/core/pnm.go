package core

import (
	"repro/internal/sim"
)

// RunPnM executes the IMPACT-PnM covert channel of Section 4.1 (Listing 1):
// the sender encodes each bit of a batch as the presence or absence of a
// row-buffer conflict in one DRAM bank, created with fire-and-forget
// PIM-enabled instructions; the receiver decodes by timing synchronous PEIs
// against its initialized rows. Core 0 is the sender, core 1 the receiver.
func RunPnM(m *sim.Machine, msg []bool, opt Options) (Result, error) {
	return transmit(m, msg, opt, func(s, r *sim.Core) (channel, error) {
		return pnm(m, s, r, opt, "IMPACT-PnM", opt.banksOrDefault(m))
	})
}

// pnm initializes banks and returns the IMPACT-PnM channel over them, which
// RunPnMAdaptive and RunPnMPipelined reuse.
func pnm(m *sim.Machine, s, r *sim.Core, opt Options, name string, banks []int) (channel, error) {
	// Step 1 (Listing 1 line 2): the receiver initializes each bank by
	// executing a PEI against its row, pulling it into the row buffer.
	for _, bank := range banks {
		if _, err := r.PEIAccess(m.AddrFor(bank, receiverInitRow, 0)); err != nil {
			return channel{}, err
		}
	}
	cols := m.Config().DRAM.RowBytes / cacheLineBytes
	cost := m.Config().Costs.SenderComputeCost
	return channel{
		name:          name,
		banks:         banks,
		threshold:     opt.fixedThreshold(),
		stall:         opt.MaintenanceStall,
		fenceSender:   true,
		fenceReceiver: true,
		// Step 2: the sender opens its row in the bank of every 1 bit
		// with a fire-and-forget PEI.
		send: func(b batch) error {
			return sendBits(s, cost, b, func(bank int) error {
				_, err := s.PEIActivate(pnmAddr(m, cols, b.k, bank, senderRow))
				return err
			})
		},
		// Step 3: the receiver times a synchronous PEI against its row.
		probe: func(k, bank int) (int64, error) {
			t0 := r.Rdtscp()
			if _, err := r.PEIAccess(pnmAddr(m, cols, k, bank, receiverInitRow)); err != nil {
				return 0, err
			}
			return r.Rdtscp() - t0, nil
		},
	}, nil
}

// pnmAddr returns the address a party uses in bank during batch k. A fresh
// cache line per batch defeats the PEI locality monitor (Section 4.1: "the
// receiver accesses the next cache line in the initialized row"); batch 0
// starts one line past the initialization access, and past the end of a
// row of cols lines the attack moves to the next row.
func pnmAddr(m *sim.Machine, cols, k, bank int, row int64) uint64 {
	line := k + 1
	return m.AddrFor(bank, row+int64(line/cols), line%cols*cacheLineBytes)
}
