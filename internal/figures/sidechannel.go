package figures

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/genomics"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// SideChannelOnce runs the Section 4.3 attack against a fresh machine with
// the given bank count (shared by Fig11, the CLI, and the benches).
func SideChannelOnce(banks, refLen, numReads, sweeps int, seed uint64) (core.SideChannelResult, error) {
	cfg := sim.DefaultConfig()
	cfg.DRAM = cfg.DRAM.WithBanks(banks)
	// Background activity scales with machine size: the noise rate is
	// device-wide, so growing it with the bank count keeps every bank's
	// background rate the same at every size.
	cfg.Noise.EventsPerMCycle = 90 * float64(banks) / 1024
	m, err := sim.New(cfg)
	if err != nil {
		return core.SideChannelResult{}, err
	}
	ref := genomics.NewReference(refLen, seed)
	idx, err := genomics.BuildIndex(ref, genomics.DefaultIndexConfig())
	if err != nil {
		return core.SideChannelResult{}, err
	}
	reads, err := genomics.SampleReads(ref, numReads, 150, 0.02, seed+1)
	if err != nil {
		return core.SideChannelResult{}, err
	}
	victim, err := genomics.NewMapper(m, m.Core(2), ref, idx, genomics.DefaultBankLayout(banks), reads, genomics.DefaultCosts())
	if err != nil {
		return core.SideChannelResult{}, err
	}
	return core.RunSideChannel(m, victim, core.SideChannelOptions{Sweeps: sweeps})
}

// Fig11 reproduces the genomic read-mapping side channel sweep over DRAM
// bank counts.
func Fig11(scale Scale) (Report, error) {
	rep := Report{ID: "Figure 11", Title: "Side-channel leakage throughput and error rate vs. DRAM banks"}
	bankCounts := []int{1024, 8192}
	sweeps, reads, refLen := 3, 8000, 1<<18
	if scale == ScaleFull {
		bankCounts = []int{1024, 2048, 4096, 8192}
		sweeps, reads, refLen = 8, 30000, 1<<20
	}
	paper := map[int]string{
		1024: "7.57 Mb/s, <5% err",
		2048: "falling, rising err",
		4096: "falling, rising err",
		8192: "2.56 Mb/s, <15% err",
	}
	for _, banks := range bankCounts {
		res, err := SideChannelOnce(banks, refLen, reads, sweeps, 7)
		if err != nil {
			return Report{}, err
		}
		rep.Rows = append(rep.Rows, Row{
			Label: fmt.Sprintf("%d banks", banks),
			Paper: paper[banks],
			Measured: fmt.Sprintf("%s, %s err (victim mapped %d reads at %.0f%% accuracy)",
				fmtMbps(res.ThroughputMbps), fmtPct(res.ErrorRate*100), res.VictimReadsMapped, res.VictimAccuracy*100),
		})
	}
	rep.Notes = append(rep.Notes,
		"throughput declines and error rises with bank count as in the paper; the decline is shallower (see EXPERIMENTS.md)")
	return rep, nil
}

// Fig12 reproduces the defense performance comparison.
func Fig12(scale Scale) (Report, error) {
	suiteCfg := workloads.SmallSuiteConfig()
	if scale == ScaleFull {
		suiteCfg = workloads.DefaultSuiteConfig()
	}
	rows, err := workloads.RunDefenseComparison(suiteCfg, workloads.DefenseConfigs())
	if err != nil {
		return Report{}, err
	}
	paper := map[string]string{
		"CTD":              "highest overhead",
		"ACT-Aggressive":   "similar to CTD",
		"ACT-Mild":         "~10% overhead",
		"ACT-Conservative": "~10% overhead",
	}
	rep := Report{ID: "Figure 12", Title: "Normalized execution time under each defense (vs. no defense)"}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, Row{
			Label: r.Defense,
			Paper: paper[r.Defense],
			Measured: fmt.Sprintf("BC %.3f BFS %.3f CC %.3f TC %.3f XS %.3f GMEAN %.3f",
				r.Normalized["BC"], r.Normalized["BFS"], r.Normalized["CC"],
				r.Normalized["TC"], r.Normalized["XS"], r.GMean),
		})
	}
	return rep, nil
}

// ACTReduction reproduces the Section 7.4 attack-throughput analysis: how
// much each defense cuts IMPACT-PnM's effective (capacity-adjusted)
// throughput.
func ACTReduction(scale Scale) (Report, error) {
	msg := core.RandomMessage(scale.Bits(), 99)
	run := func(mem memctrl.Config) (core.Result, error) {
		cfg := sim.DefaultConfig()
		cfg.Mem = mem
		m, err := sim.New(cfg)
		if err != nil {
			return core.Result{}, err
		}
		return core.RunPnM(m, msg, core.Options{})
	}
	baseline, err := run(memctrl.DefaultConfig())
	if err != nil {
		return Report{}, err
	}
	paper := map[string]string{
		"CTD":              "prevents completely",
		"ACT-Aggressive":   "-72% on average",
		"ACT-Mild":         "cannot reduce",
		"ACT-Conservative": "cannot reduce",
	}
	rep := Report{
		ID:    "§7.4",
		Title: "IMPACT-PnM effective throughput under defenses",
		Rows: []Row{{
			Label:    "no defense",
			Paper:    "8.2 Mb/s",
			Measured: fmtMbps(baseline.EffectiveThroughputMbps),
		}},
	}
	for _, d := range workloads.DefenseConfigs() {
		res, err := run(d)
		if err != nil {
			return Report{}, err
		}
		reduction := 0.0
		if baseline.EffectiveThroughputMbps > 0 {
			reduction = 100 * (1 - res.EffectiveThroughputMbps/baseline.EffectiveThroughputMbps)
		}
		name := workloads.DefenseName(d)
		rep.Rows = append(rep.Rows, Row{
			Label:    name,
			Paper:    paper[name],
			Measured: fmt.Sprintf("%s (reduction %.0f%%)", fmtMbps(res.EffectiveThroughputMbps), reduction),
		})
	}
	rep.Notes = append(rep.Notes,
		"ACT-Aggressive eliminates the channel here rather than reducing it 72%: with 4000-epoch penalties every bank stays padded (see EXPERIMENTS.md)")
	return rep, nil
}
