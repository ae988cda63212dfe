package core

import (
	"repro/internal/sim"
)

// RunPnMAdaptive executes the IMPACT-PnM channel with the adaptive attacker
// of Section 7.4: against the ACT defense, the parties transmit only during
// epochs in which the banks serve default latency, idling through
// constant-time penalty windows. The attacker infers padding from its own
// measurements (every probe at worst-case latency), which the simulation
// models via the controller's ConstantTimeActive observable.
//
// Against ACT-Mild/Conservative the penalties expire between batches and
// throughput is essentially unaffected; against ACT-Aggressive the 4000-
// epoch penalties leave almost no usable windows — the trade-off the paper
// quantifies.
func RunPnMAdaptive(m *sim.Machine, msg []bool, opt Options) (Result, error) {
	return transmit(m, msg, opt, func(s, r *sim.Core) (channel, error) {
		banks := opt.banksOrDefault(m)
		ch, err := pnm(m, s, r, opt, "IMPACT-PnM-adaptive", banks)
		if err != nil {
			return channel{}, err
		}
		ctrl := m.Controller()
		epoch := m.Config().Mem.ACT.EpochCycles
		if epoch <= 0 {
			epoch = 2600
		}
		padded := func() bool {
			for _, bank := range banks {
				if ctrl.ConstantTimeActive(s.Now(), bank) {
					return true
				}
			}
			return false
		}
		// Idle while any channel bank is padded, up to a budget after
		// which the batch goes out anyway (so the run always terminates
		// even under ACT-Aggressive); the receiver then catches up.
		ch.idle = func() {
			for waited := int64(0); waited < 64*epoch && padded(); waited += epoch {
				s.Advance(epoch)
			}
			r.AdvanceTo(s.Now())
		}
		return ch, nil
	})
}
