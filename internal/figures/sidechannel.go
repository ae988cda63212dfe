package figures

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/genomics"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// VictimReadLen is the length in bases of each read the Section 4.3 victim
// maps; a reference must be at least this long.
const VictimReadLen = 150

// SideChannel runs the Section 4.3 attack once per bank count, each on a
// machine with that many banks as New builds it, side by side as sim.Fan
// allows. The reference, its seeding index and the victim's reads are
// built once and shared by every run, which only reads them; the index
// and the reads, which only read the reference, are built side by side
// too. Fig11, impact-sidechannel, the genomeleak example and the benches
// share it.
//
// Every run's victim maps the same reads, so their k-mer lookups, chaining
// and alignment come from one genomics.Plan, computed once per read. One
// more task computes its entries ahead of the victims on a core the runs
// leave idle, until the last run returns. Fan claims that task after every
// run, so it only starts once a run has finished and freed its core; at
// GOMAXPROCS=1 it starts after them all and computes nothing.
func SideChannel(bankCounts []int, refLen, numReads, sweeps int, seed uint64) ([]core.SideChannelResult, error) {
	ref := genomics.NewReference(refLen, seed)
	var (
		idx   *genomics.Index
		reads []genomics.Read
	)
	_, err := sim.Fan(2, func(i int) (struct{}, error) {
		var err error
		if i == 0 {
			idx, err = genomics.BuildIndex(ref, genomics.DefaultIndexConfig())
		} else {
			reads, err = genomics.SampleReads(ref, numReads, VictimReadLen, 0.02, seed+1)
		}
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	return sideChannelRuns(bankCounts, genomics.NewPlan(ref, idx, reads), sweeps)
}

// sideChannelRuns runs the attack once per bank count over plan, with the
// plan's prefetch task beside them. Its prefetch is done when it returns.
func sideChannelRuns(bankCounts []int, plan *genomics.Plan, sweeps int) ([]core.SideChannelResult, error) {
	runs := len(bankCounts)
	var left atomic.Int32
	left.Store(int32(runs))
	if runs == 0 {
		plan.Stop()
	}
	results, err := sim.Fan(runs+1, func(i int) (core.SideChannelResult, error) {
		if i == runs {
			plan.Prefetch()
			return core.SideChannelResult{}, nil
		}
		defer func() {
			if left.Add(-1) == 0 {
				plan.Stop()
			}
		}()
		return sideChannelOn(bankCounts[i], plan, sweeps)
	})
	if err != nil {
		return nil, err
	}
	return results[:runs], nil
}

// sideChannelOn runs one attack on a pooled machine with the given bank
// count and returns the machine to the pool when it is done.
func sideChannelOn(banks int, plan *genomics.Plan, sweeps int) (core.SideChannelResult, error) {
	cfg := sim.DefaultConfig()
	cfg.DRAM = cfg.DRAM.WithBanks(banks)
	// Background activity scales with machine size: the noise rate is
	// device-wide, so growing it with the bank count keeps every bank's
	// background rate the same at every size.
	cfg.Noise.EventsPerMCycle = 90 * float64(banks) / 1024
	m, err := machines.Get(cfg)
	if err != nil {
		return core.SideChannelResult{}, err
	}
	defer machines.Put(m)
	victim, err := genomics.NewMapper(m, m.Core(2), plan, genomics.DefaultBankLayout(banks), genomics.DefaultCosts())
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
	results, err := SideChannel(bankCounts, refLen, reads, sweeps, 7)
	if err != nil {
		return Report{}, err
	}
	for _, res := range results {
		rep.Rows = append(rep.Rows, Row{
			Label: fmt.Sprintf("%d banks", res.Banks),
			Paper: paper[res.Banks],
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
	rows, err := workloads.RunDefenseComparison(machines, suiteCfg, workloads.DefenseConfigs())
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

// RunPnMUnder runs IMPACT-PnM with msg on a default machine, as New builds
// it, whose memory controller is mem, typically a defense.
func RunPnMUnder(mem memctrl.Config, msg []bool) (core.Result, error) {
	cfg := sim.DefaultConfig()
	cfg.Mem = mem
	m, err := machines.Get(cfg)
	if err != nil {
		return core.Result{}, err
	}
	defer machines.Put(m)
	return core.RunPnM(m, msg, core.Options{})
}

// DefenseAttack is IMPACT-PnM's result under one defense: Defense is "no
// defense" or the defense's workloads.DefenseName, and Reduction is the
// percentage by which it cuts effective throughput relative to no defense.
type DefenseAttack struct {
	Defense   string
	Result    core.Result
	Reduction float64
}

// AttackUnderDefenses runs IMPACT-PnM with msg on an undefended controller,
// then under each Figure 12 defense (workloads.DefenseConfigs), and reports
// each defense's throughput reduction. The first entry is the undefended
// run.
func AttackUnderDefenses(msg []bool) ([]DefenseAttack, error) {
	baseline, err := RunPnMUnder(memctrl.DefaultConfig(), msg)
	if err != nil {
		return nil, err
	}
	out := []DefenseAttack{{Defense: "no defense", Result: baseline}}
	for _, d := range workloads.DefenseConfigs() {
		res, err := RunPnMUnder(d, msg)
		if err != nil {
			return nil, err
		}
		reduction := 0.0
		if baseline.EffectiveThroughputMbps > 0 {
			reduction = 100 * (1 - res.EffectiveThroughputMbps/baseline.EffectiveThroughputMbps)
		}
		out = append(out, DefenseAttack{Defense: workloads.DefenseName(d), Result: res, Reduction: reduction})
	}
	return out, nil
}

// ACTReduction reproduces the Section 7.4 attack-throughput analysis: how
// much each defense cuts IMPACT-PnM's effective (capacity-adjusted)
// throughput.
func ACTReduction(scale Scale) (Report, error) {
	attacks, err := AttackUnderDefenses(core.RandomMessage(scale.Bits(), 99))
	if err != nil {
		return Report{}, err
	}
	paper := map[string]string{
		"no defense":       "8.2 Mb/s",
		"CTD":              "prevents completely",
		"ACT-Aggressive":   "-72% on average",
		"ACT-Mild":         "cannot reduce",
		"ACT-Conservative": "cannot reduce",
	}
	rep := Report{ID: "§7.4", Title: "IMPACT-PnM effective throughput under defenses"}
	for i, a := range attacks {
		measured := fmtMbps(a.Result.EffectiveThroughputMbps)
		if i > 0 {
			measured = fmt.Sprintf("%s (reduction %.0f%%)", measured, a.Reduction)
		}
		rep.Rows = append(rep.Rows, Row{Label: a.Defense, Paper: paper[a.Defense], Measured: measured})
	}
	rep.Notes = append(rep.Notes,
		"ACT-Aggressive eliminates the channel here rather than reducing it 72%: with 4000-epoch penalties every bank stays padded (see EXPERIMENTS.md)")
	return rep, nil
}
