// Defense tuning: explore the ACT (adaptive constant-time) design space of
// the paper's Section 7.4 — the trade-off between workload slowdown and
// covert-channel throughput reduction as the penalty window and conflict
// threshold vary.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "defensetuning:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	msg := core.RandomMessage(2048, 5)
	baseline, err := figures.RunPnMUnder(memctrl.DefaultConfig(), msg)
	if err != nil {
		return err
	}

	configs := []memctrl.ACTConfig{
		{EpochCycles: 2600, ConflictThreshold: 1, PenaltyEpochs: 2},
		{EpochCycles: 2600, ConflictThreshold: 1, PenaltyEpochs: 8},
		{EpochCycles: 2600, ConflictThreshold: 1, PenaltyEpochs: 64},
		{EpochCycles: 2600, ConflictThreshold: 1, PenaltyEpochs: 512},
		{EpochCycles: 2600, ConflictThreshold: 1, PenaltyEpochs: 4000},
		{EpochCycles: 2600, ConflictThreshold: 5, PenaltyEpochs: 64},
		{EpochCycles: 10400, ConflictThreshold: 1, PenaltyEpochs: 64},
	}

	mems := make([]memctrl.Config, len(configs))
	for i, act := range configs {
		mems[i] = memctrl.DefaultConfig()
		mems[i].Defense = memctrl.DefenseAdaptive
		mems[i].ACT = act
	}
	// One call runs the workloads once and re-times them under every
	// configuration.
	rows, err := workloads.RunDefenseComparison(sim.NewPool(), workloads.SmallSuiteConfig(), mems)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-42s %14s %16s\n", "ACT configuration", "slowdown", "attack residual")
	for i, act := range configs {
		attack, err := figures.RunPnMUnder(mems[i], msg)
		if err != nil {
			return err
		}
		residual := 0.0
		if baseline.EffectiveThroughputMbps > 0 {
			residual = 100 * attack.EffectiveThroughputMbps / baseline.EffectiveThroughputMbps
		}
		fmt.Fprintf(stdout, "epoch=%5dcyc threshold=%d penalty=%4d epochs %13.3fx %15.1f%%\n",
			act.EpochCycles, act.ConflictThreshold, act.PenaltyEpochs, rows[i].GMean, residual)
	}
	fmt.Fprintln(stdout, "\nslowdown = GMEAN normalized execution time over BC/BFS/CC/TC/XS")
	fmt.Fprintln(stdout, "attack residual = IMPACT-PnM effective throughput vs. an undefended system")
	return nil
}
