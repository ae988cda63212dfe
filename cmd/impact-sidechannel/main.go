// Command impact-sidechannel runs the genomic read-mapping side channel of
// Section 4.3, sweeping the number of DRAM banks holding the seeding hash
// table (Figure 11).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/figures"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "impact-sidechannel:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("impact-sidechannel", flag.ContinueOnError)
	var (
		refLen = fs.Int("ref-len", 1<<20, "reference genome length (bases)")
		reads  = fs.Int("reads", 4000, "number of reads the victim maps")
		sweeps = fs.Int("sweeps", 6, "attacker sweeps over all banks")
		seed   = fs.Uint64("seed", 7, "experiment seed")
		single = fs.Int("banks", 0, "run a single bank count instead of the Figure 11 sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		value int
	}{{"ref-len", *refLen}, {"reads", *reads}, {"banks", *single}} {
		if f.value < 0 {
			return fmt.Errorf("-%s must not be negative, got %d", f.name, f.value)
		}
	}

	bankCounts := []int{1024, 2048, 4096, 8192}
	if *single > 0 {
		bankCounts = []int{*single}
	}
	fmt.Fprintf(stdout, "%-8s %12s %10s %14s %14s\n", "banks", "Mb/s", "err%", "reads mapped", "victim acc%")
	for _, banks := range bankCounts {
		res, err := figures.SideChannelOnce(banks, *refLen, *reads, *sweeps, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-8d %12.2f %10.2f %14d %14.2f\n",
			banks, res.ThroughputMbps, res.ErrorRate*100, res.VictimReadsMapped, res.VictimAccuracy*100)
	}
	return nil
}
