package figures

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sim"
)

// Section84 reproduces the forward-looking analysis of Section 8.4: the
// behaviour of IMPACT on future DRAM devices — more banks (more covert
// parallelism) and RowHammer mitigations (RFM/PRAC) whose preventive-action
// stalls are visible to, and tolerable by, the receiver.
func Section84(scale Scale) (Report, error) {
	bits := scale.Bits()
	rep := Report{ID: "§8.4", Title: "Future DRAM devices: bank scaling and RowHammer mitigations"}

	// Bank scaling: PuM throughput with 16 vs. 64 banks per batch.
	runPuM := func(banks int) (core.Result, error) {
		cfg := sim.DefaultConfig()
		cfg.Noise.EventsPerMCycle = 0
		cfg.DRAM = cfg.DRAM.WithBanks(banks)
		m, err := machines.Get(cfg)
		if err != nil {
			return core.Result{}, err
		}
		defer machines.Put(m)
		set := make([]int, banks)
		for i := range set {
			set[i] = i
		}
		if len(set) > 64 {
			set = set[:64]
		}
		return core.RunPuM(m, core.RandomMessage(bits, 21), core.Options{Banks: set})
	}
	narrow, err := runPuM(16)
	if err != nil {
		return Report{}, err
	}
	wide, err := runPuM(64)
	if err != nil {
		return Report{}, err
	}
	rep.Rows = append(rep.Rows,
		Row{Label: "PuM over 16 banks", Paper: "baseline", Measured: fmtMbps(narrow.ThroughputMbps)},
		Row{Label: "PuM over 64 banks", Paper: "throughput grows with banks", Measured: fmtMbps(wide.ThroughputMbps)},
	)

	// RowHammer mitigations: RFM-style preventive actions under the PnM
	// channel, with and without the receiver's stall filter, plus the
	// coding layer.
	runPnM := func(maint dram.Maintenance, opt core.Options) (core.Result, error) {
		cfg := sim.DefaultConfig()
		cfg.Noise.EventsPerMCycle = 0
		cfg.DRAM.Maintenance = maint
		m, err := machines.Get(cfg)
		if err != nil {
			return core.Result{}, err
		}
		defer machines.Put(m)
		return core.RunPnM(m, core.RandomMessage(bits, 22), opt)
	}
	plain, err := runPnM(dram.Maintenance{}, core.Options{})
	if err != nil {
		return Report{}, err
	}
	rfm, err := runPnM(dram.DDR5RFM(), core.Options{})
	if err != nil {
		return Report{}, err
	}
	rfmFiltered, err := runPnM(dram.DDR5RFM(), core.Options{MaintenanceStall: dram.DDR5RFM().MitigationPenalty})
	if err != nil {
		return Report{}, err
	}
	refresh, err := runPnM(dram.DDR4Refresh(), core.Options{})
	if err != nil {
		return Report{}, err
	}
	rep.Rows = append(rep.Rows,
		Row{Label: "PnM, no maintenance", Paper: "8.2 Mb/s", Measured: fmt.Sprintf("%s, %s err", fmtMbps(plain.ThroughputMbps), fmtPct(plain.ErrorRate*100))},
		Row{Label: "PnM under RFM", Paper: "stalls filterable", Measured: fmt.Sprintf("%s, %s err", fmtMbps(rfm.ThroughputMbps), fmtPct(rfm.ErrorRate*100))},
		Row{Label: "PnM under RFM + filter", Paper: "-", Measured: fmt.Sprintf("%s, %s err", fmtMbps(rfmFiltered.ThroughputMbps), fmtPct(rfmFiltered.ErrorRate*100))},
		Row{Label: "PnM under DDR4 refresh", Paper: "-", Measured: fmt.Sprintf("%s, %s err", fmtMbps(refresh.ThroughputMbps), fmtPct(refresh.ErrorRate*100))},
	)
	rep.Notes = append(rep.Notes,
		"RFM preventive actions land on activations (logic-1 probes), so the PnM decode tolerates them; refresh adds ~4.5% duty-cycle stalls")
	return rep, nil
}

// AdaptiveAttacker reproduces the Section 7.4 observation that an attacker
// can transmit only while ACT serves default latency.
func AdaptiveAttacker(scale Scale) (Report, error) {
	bits := scale.Bits()
	run := func(act memctrl.ACTConfig, adaptive bool) (core.Result, error) {
		mem := memctrl.DefaultConfig()
		mem.Defense = memctrl.DefenseAdaptive
		mem.ACT = act
		cfg := sim.DefaultConfig()
		cfg.Noise.EventsPerMCycle = 0
		cfg.Mem = mem
		m, err := machines.Get(cfg)
		if err != nil {
			return core.Result{}, err
		}
		defer machines.Put(m)
		if adaptive {
			return core.RunPnMAdaptive(m, core.RandomMessage(bits, 23), core.Options{})
		}
		return core.RunPnM(m, core.RandomMessage(bits, 23), core.Options{})
	}
	rep := Report{ID: "§7.4-adaptive", Title: "Plain vs. adaptive attacker under ACT"}
	for _, tc := range []struct {
		name string
		act  memctrl.ACTConfig
	}{
		{"ACT-Mild", memctrl.ACTMild()},
		{"ACT-Aggressive", memctrl.ACTAggressive()},
	} {
		plain, err := run(tc.act, false)
		if err != nil {
			return Report{}, err
		}
		adaptive, err := run(tc.act, true)
		if err != nil {
			return Report{}, err
		}
		rep.Rows = append(rep.Rows, Row{
			Label: tc.name,
			Paper: "attacker transmits in default-latency epochs",
			Measured: fmt.Sprintf("plain %s eff (err %s) / adaptive %s eff (err %s)",
				fmtMbps(plain.EffectiveThroughputMbps), fmtPct(plain.ErrorRate*100),
				fmtMbps(adaptive.EffectiveThroughputMbps), fmtPct(adaptive.ErrorRate*100)),
		})
	}
	return rep, nil
}

// ReliableFraming demonstrates the FEC layer a practical attacker ships:
// raw vs. residual error and goodput on a noisy machine.
func ReliableFraming(scale Scale) (Report, error) {
	cfg := sim.DefaultConfig()
	cfg.Noise.EventsPerMCycle = 250
	m, err := machines.Get(cfg)
	if err != nil {
		return Report{}, err
	}
	defer machines.Put(m)
	data := core.RandomMessage(scale.Bits(), 24)
	res, err := core.RunReliable(m, data, core.Options{}, core.RunPnM)
	if err != nil {
		return Report{}, err
	}
	residual := float64(res.Coded.ResidualErrors) / float64(len(data))
	return Report{
		ID:    "framing",
		Title: "Hamming(7,4)+interleaving over IMPACT-PnM on a noisy system",
		Rows: []Row{
			{Label: "raw channel error", Paper: "-", Measured: fmtPct(res.Raw.ErrorRate * 100)},
			{Label: "residual error after coding", Paper: "-", Measured: fmtPct(residual * 100)},
			{Label: "corrections applied", Paper: "-", Measured: fmt.Sprintf("%d", res.Coded.Corrections)},
			{Label: "goodput", Paper: "-", Measured: fmtMbps(res.GoodputMbps)},
		},
	}, nil
}
