// Command impact-defense evaluates the paper's Section 7 defenses: the
// Figure 12 performance comparison (CTD and the three ACT variants over the
// GraphBIG + XSBench suite) and the Section 7.4 attack-throughput reduction
// of ACT against IMPACT-PnM.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "impact-defense:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("impact-defense", flag.ContinueOnError)
	var (
		small      = fs.Bool("small", false, "use the reduced workload suite")
		throughput = fs.Bool("attack-throughput", true, "also report ACT's effect on IMPACT-PnM throughput")
		bits       = fs.Int("bits", 2048, "message bits for the attack-throughput experiment")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bits < 0 {
		return fmt.Errorf("-bits must not be negative, got %d", *bits)
	}

	suiteCfg := workloads.DefaultSuiteConfig()
	if *small {
		suiteCfg = workloads.SmallSuiteConfig()
	}
	rows, err := workloads.RunDefenseComparison(sim.NewPool(), suiteCfg, workloads.DefenseConfigs())
	if err != nil {
		return err
	}

	names := []string{"BC", "BFS", "CC", "TC", "XS"}
	fmt.Fprintf(stdout, "%-18s", "defense")
	for _, n := range names {
		fmt.Fprintf(stdout, " %8s", n)
	}
	fmt.Fprintf(stdout, " %8s\n", "GMEAN")
	for _, row := range rows {
		fmt.Fprintf(stdout, "%-18s", row.Defense)
		for _, n := range names {
			fmt.Fprintf(stdout, " %8.3f", row.Normalized[n])
		}
		fmt.Fprintf(stdout, " %8.3f\n", row.GMean)
	}

	if !*throughput {
		return nil
	}
	attacks, err := figures.AttackUnderDefenses(core.RandomMessage(*bits, 99))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "IMPACT-PnM throughput under ACT (Section 7.4):")
	for i, a := range attacks {
		fmt.Fprintf(stdout, "%-18s %10.2f Mb/s effective (err %.1f%%",
			a.Defense, a.Result.EffectiveThroughputMbps, a.Result.ErrorRate*100)
		if i > 0 {
			fmt.Fprintf(stdout, ", reduction %.0f%%", a.Reduction)
		}
		fmt.Fprintln(stdout, ")")
	}
	return nil
}
