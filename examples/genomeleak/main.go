// Genome leak: run the end-to-end side channel of the paper's Section 4.3.
// A victim process maps synthetic sequencing reads against a reference
// genome using PiM-offloaded seeding; a co-located attacker sweeps the DRAM
// banks holding the seeding hash table and reconstructs which buckets the
// victim touched — the raw material for a DNA imputation attack.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/figures"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genomeleak:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	// The victim, on core 2, maps 20000 reads against a 1 Mbase reference
	// whose seeding hash table spreads over 1024 DRAM banks; the attacker,
	// on core 3, sweeps all of them six times.
	res, err := figures.SideChannelOnce(1024, 1<<20, 20000, 6, 2024)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "victim: genomic read mapping with PiM-offloaded seeding")
	fmt.Fprintf(stdout, "  reads mapped: %d (%.1f%% placed within 64 bp of the true locus)\n",
		res.VictimReadsMapped, res.VictimAccuracy*100)
	fmt.Fprintln(stdout, "attacker: row-buffer probes over the shared hash table")
	fmt.Fprintf(stdout, "  leakage: %.2f Mb/s at %.2f%% error over %d banks\n",
		res.ThroughputMbps, res.ErrorRate*100, res.Banks)
	fmt.Fprintf(stdout, "  %d probes, %d correct, %d false positives, %d false negatives\n",
		res.Probes, res.Correct, res.FalsePositives, res.FalseNegatives)
	fmt.Fprintln(stdout, "each correct probe tells the attacker whether the victim's query genome")
	fmt.Fprintln(stdout, "contains a seed hashing into that bank's hash-table rows — the input to")
	fmt.Fprintln(stdout, "a completion/imputation attack on the private genome (paper §4.3).")
	return nil
}
