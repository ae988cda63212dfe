package workloads

import (
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SuiteConfig sizes the Figure 12 workload suite.
type SuiteConfig struct {
	// GraphN and GraphDegree size the GraphBIG input graph. The defaults
	// give an edge array comparable to the LLC so the kernels exercise
	// DRAM, as the paper's full-size inputs do.
	GraphN      int
	GraphDegree int
	// TCSample caps triangle counting; BCSources caps Brandes sources.
	TCSample  int
	BCSources int
	// XSLookups sizes the XSBench kernel.
	XSLookups int
	Seed      uint64
}

// DefaultSuiteConfig returns the full-scale configuration used by
// cmd/impact-defense.
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{
		GraphN:      1 << 17,
		GraphDegree: 12,
		TCSample:    1 << 11,
		BCSources:   2,
		XSLookups:   40000,
		Seed:        11,
	}
}

// SmallSuiteConfig returns a reduced configuration for unit tests and
// benchmarks.
func SmallSuiteConfig() SuiteConfig {
	return SuiteConfig{
		GraphN:      1 << 12,
		GraphDegree: 8,
		TCSample:    256,
		BCSources:   1,
		XSLookups:   2000,
		Seed:        11,
	}
}

// Suite builds the five Figure 12 workloads over shared inputs.
func Suite(cfg SuiteConfig) []Workload {
	g := NewRandomGraph(cfg.GraphN, cfg.GraphDegree, cfg.Seed)
	return []Workload{
		BC{G: g, Sources: cfg.BCSources},
		BFS{G: g},
		CC{G: g, MaxIters: 4},
		TC{G: g, Sample: cfg.TCSample},
		XSBench{GridPoints: 1 << 16, Nuclides: 64, Lookups: cfg.XSLookups, Seed: cfg.Seed},
	}
}

// DefenseRow is one Figure 12 series: a defense and its normalized execution
// time per workload plus the geometric mean.
type DefenseRow struct {
	Defense    string
	Normalized map[string]float64
	GMean      float64
}

// DefenseConfigs returns the Figure 12 defense configurations in plot order.
func DefenseConfigs() []memctrl.Config {
	base := memctrl.DefaultConfig()
	ctd := base
	ctd.Defense = memctrl.DefenseConstantTime
	aggr := base
	aggr.Defense = memctrl.DefenseAdaptive
	aggr.ACT = memctrl.ACTAggressive()
	mild := base
	mild.Defense = memctrl.DefenseAdaptive
	mild.ACT = memctrl.ACTMild()
	cons := base
	cons.Defense = memctrl.DefenseAdaptive
	cons.ACT = memctrl.ACTConservative()
	return []memctrl.Config{ctd, aggr, mild, cons}
}

// DefenseName labels a controller configuration as in Figure 12.
func DefenseName(cfg memctrl.Config) string {
	if cfg.Defense != memctrl.DefenseAdaptive {
		return "CTD"
	}
	switch {
	case cfg.ACT.PenaltyEpochs >= 1000:
		return "ACT-Aggressive"
	case cfg.ACT.ConflictThreshold >= 5:
		return "ACT-Conservative"
	default:
		return "ACT-Mild"
	}
}

// RunDefenseComparison times every workload under the baseline and each
// defense, returning normalized execution times (Figure 12). Each workload
// runs once, under the baseline controller, with its memory-controller
// requests recorded; each defense's controller then re-times that trace
// (sim.Machine.Replay), so the caches, TLBs and prefetchers run once per
// workload, not once per defense. Defenses change timing, never results:
// nothing above the controller reads the clock, and
// TestDefensesPreserveResults holds every replay to a direct run.
func RunDefenseComparison(suiteCfg SuiteConfig, defenses []memctrl.Config) ([]DefenseRow, error) {
	suite := Suite(suiteCfg)
	base, cycles, err := replayDefenses(sim.NewPool(), suite, defenses)
	if err != nil {
		return nil, err
	}
	rows := make([]DefenseRow, len(defenses))
	for i, d := range defenses {
		row := DefenseRow{Defense: DefenseName(d), Normalized: make(map[string]float64, len(suite))}
		norms := make([]float64, len(suite))
		for j, w := range suite {
			norms[j] = float64(cycles[i][j]) / float64(base[j].Cycles)
			row.Normalized[w.Name()] = norms[j]
		}
		row.GMean = stats.GeometricMean(norms)
		rows[i] = row
	}
	return rows, nil
}

// replayDefenses runs each workload of suite once on a machine from pool
// under the baseline controller, recording its controller requests into
// one reused trace, and replays the trace under each defense.
// cycles[i][j] is workload j's execution time under defenses[i].
func replayDefenses(pool *sim.Pool, suite []Workload, defenses []memctrl.Config) (base []Result, cycles [][]int64, err error) {
	base = make([]Result, len(suite))
	cycles = make([][]int64, len(defenses))
	for i := range cycles {
		cycles[i] = make([]int64, len(suite))
	}
	var trace sim.Trace
	for j, w := range suite {
		m, err := pool.Get(machineConfig(memctrl.DefaultConfig()))
		if err != nil {
			return nil, nil, err
		}
		m.Record(&trace)
		base[j] = w.Run(m.Core(0))
		pool.Put(m)
		for i, d := range defenses {
			m, err := pool.Get(machineConfig(d))
			if err != nil {
				return nil, nil, err
			}
			cycles[i][j] = base[j].Cycles + m.Replay(&trace)
			pool.Put(m)
		}
	}
	return base, cycles, nil
}

// machineConfig is the machine every Figure 12 run uses: the default
// machine with memory controller mem. Workload runs measure steady
// application behaviour, not attack noise, so noise is off.
func machineConfig(mem memctrl.Config) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem = mem
	cfg.Noise.EventsPerMCycle = 0
	return cfg
}
