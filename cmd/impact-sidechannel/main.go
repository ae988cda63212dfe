// Command impact-sidechannel runs the genomic read-mapping side channel of
// Section 4.3, sweeping the number of DRAM banks holding the seeding hash
// table (Figure 11).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/figures"
)

// maxBanks is the largest bank count the DRAM configuration accepts.
const maxBanks = 1 << 16

// maxReads caps -reads: the victim's reads take 150 bytes each, and 2^20 is
// 35 times full-scale Figure 11's 30,000.
const maxReads = 1 << 20

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
	// Every read must fit in the reference, whose positions the index
	// holds as int32.
	if *refLen < figures.VictimReadLen || *refLen > math.MaxInt32 {
		return fmt.Errorf("-ref-len must be between %d and %d, got %d", figures.VictimReadLen, math.MaxInt32, *refLen)
	}
	for _, f := range []struct {
		name  string
		value int
	}{{"reads", *reads}, {"sweeps", *sweeps}} {
		if f.value < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.value)
		}
	}
	if *reads > maxReads {
		return fmt.Errorf("-reads must be at most %d, got %d", maxReads, *reads)
	}
	// The device needs a power-of-two bank count within the DRAM geometry
	// cap; checking here keeps a bad count from failing after the header.
	if b := *single; b < 0 || b != 0 && (b&(b-1) != 0 || b > maxBanks) {
		return fmt.Errorf("-banks must be a power of two no larger than %d, got %d", maxBanks, b)
	}

	bankCounts := []int{1024, 2048, 4096, 8192}
	if *single > 0 {
		bankCounts = []int{*single}
	}
	results, err := figures.SideChannel(bankCounts, *refLen, *reads, *sweeps, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-8s %12s %10s %14s %14s\n", "banks", "Mb/s", "err%", "reads mapped", "victim acc%")
	for _, res := range results {
		fmt.Fprintf(stdout, "%-8d %12.2f %10.2f %14d %14.2f\n",
			res.Banks, res.ThroughputMbps, res.ErrorRate*100, res.VictimReadsMapped, res.VictimAccuracy*100)
	}
	return nil
}
