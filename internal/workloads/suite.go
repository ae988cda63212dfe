package workloads

import (
	"fmt"

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

// RunDefenseComparison executes every workload under the baseline and each
// defense, returning normalized execution times (Figure 12). It also checks
// that defenses never change computed results, returning an error if a
// checksum diverges. Every run has the same machine shape, so one pooled
// machine serves them all.
func RunDefenseComparison(suiteCfg SuiteConfig, defenses []memctrl.Config) ([]DefenseRow, error) {
	suite := Suite(suiteCfg)
	pool := sim.NewPool()

	baseline := make(map[string]Result, len(suite))
	for _, w := range suite {
		res, err := runOne(pool, w, memctrl.DefaultConfig())
		if err != nil {
			return nil, err
		}
		baseline[w.Name()] = res
	}

	rows := make([]DefenseRow, 0, len(defenses))
	for _, d := range defenses {
		row := DefenseRow{Defense: DefenseName(d), Normalized: make(map[string]float64, len(suite))}
		norms := make([]float64, 0, len(suite))
		for _, w := range suite {
			res, err := runOne(pool, w, d)
			if err != nil {
				return nil, err
			}
			base := baseline[w.Name()]
			if res.Checksum != base.Checksum {
				return nil, fmt.Errorf("workloads: %s checksum changed under %s: %d != %d",
					w.Name(), row.Defense, res.Checksum, base.Checksum)
			}
			norm := float64(res.Cycles) / float64(base.Cycles)
			row.Normalized[w.Name()] = norm
			norms = append(norms, norm)
		}
		row.GMean = stats.GeometricMean(norms)
		rows = append(rows, row)
	}
	return rows, nil
}

// runOne executes a workload on a machine from pool, as New builds it, with
// the given memory controller configuration.
func runOne(pool *sim.Pool, w Workload, mem memctrl.Config) (Result, error) {
	cfg := sim.DefaultConfig()
	cfg.Mem = mem
	// Workload runs measure steady application behaviour, not attack
	// noise.
	cfg.Noise.EventsPerMCycle = 0
	m, err := pool.Get(cfg)
	if err != nil {
		return Result{}, err
	}
	defer pool.Put(m)
	return w.Run(m.Core(0)), nil
}
