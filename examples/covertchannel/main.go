// Covert-channel comparison: transmit a 1 KiB message over every channel
// variant the paper evaluates (IMPACT-PnM, IMPACT-PuM, direct access,
// DRAMA-clflush, DRAMA-eviction, DMA) and show the per-bank latency trace a
// receiver sees while decoding one batch — the view of the paper's Figure 8.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "covertchannel:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	msg := core.RandomMessage(8192, 1234)

	fmt.Fprintf(stdout, "%-16s %10s %8s %12s\n", "channel", "Mb/s", "err%", "cycles")
	for _, ch := range core.Channels() {
		m, err := sim.New(sim.DefaultConfig())
		if err != nil {
			return err
		}
		res, err := ch.Run(m, msg, core.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-16s %10.2f %8.2f %12d\n", res.Channel, res.ThroughputMbps, res.ErrorRate*100, res.Cycles)
	}

	// Figure 8 view: one 16-bit batch with the receiver's raw latencies.
	fmt.Fprintln(stdout, "\nreceiver latency trace for one 16-bit PnM batch (threshold 150):")
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return err
	}
	poc := []bool{true, true, true, false, false, true, false, false, true, true, true, false, false, true, false, false}
	res, err := core.RunPnM(m, poc, core.Options{RecordLatencies: true})
	if err != nil {
		return err
	}
	for i, lat := range res.Latencies {
		bit := 0
		if poc[i] {
			bit = 1
		}
		decoded := 0
		if res.Decoded[i] {
			decoded = 1
		}
		fmt.Fprintf(stdout, "  bank %2d: sent %d, measured %3d cycles, decoded %d\n", i, bit, lat, decoded)
	}
	return nil
}
