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

	suite := workloads.SmallSuiteConfig()
	fmt.Fprintf(stdout, "%-42s %14s %16s\n", "ACT configuration", "slowdown", "attack residual")
	for _, act := range configs {
		mem := memctrl.DefaultConfig()
		mem.Defense = memctrl.DefenseAdaptive
		mem.ACT = act

		rows, err := workloads.RunDefenseComparison(suite, []memctrl.Config{mem})
		if err != nil {
			return err
		}
		attack, err := figures.RunPnMUnder(mem, msg)
		if err != nil {
			return err
		}
		residual := 0.0
		if baseline.EffectiveThroughputMbps > 0 {
			residual = 100 * attack.EffectiveThroughputMbps / baseline.EffectiveThroughputMbps
		}
		fmt.Fprintf(stdout, "epoch=%5dcyc threshold=%d penalty=%4d epochs %13.3fx %15.1f%%\n",
			act.EpochCycles, act.ConflictThreshold, act.PenaltyEpochs, rows[0].GMean, residual)
	}
	fmt.Fprintln(stdout, "\nslowdown = GMEAN normalized execution time over BC/BFS/CC/TC/XS")
	fmt.Fprintln(stdout, "attack residual = IMPACT-PnM effective throughput vs. an undefended system")
	return nil
}
