// Command impact-covert runs the IMPACT covert channels and their baselines
// on the simulated PiM system and prints throughput, error rate and timing
// breakdowns. It can also sweep LLC size (Figure 9 / Figure 2) and LLC ways
// (Figure 3).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "impact-covert:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("impact-covert", flag.ContinueOnError)
	var (
		bits     = fs.Int("bits", 4096, "message length in bits")
		seed     = fs.Uint64("seed", 42, "message seed")
		channels = fs.String("channels", "pnm,pum,clflush,eviction,dma,direct", "comma-separated channel list")
		llcMB    = fs.Int("llc-mb", 8, "LLC size in MiB")
		llcWays  = fs.Int("llc-ways", 16, "LLC associativity")
		sweep    = fs.String("sweep", "", "sweep 'size' (1..128 MiB) or 'ways' (2..128)")
		noise    = fs.Float64("noise", 3, "background noise events per Mcycle")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bits < 0 {
		return fmt.Errorf("-bits must not be negative, got %d", *bits)
	}
	if *llcMB < 1 || *llcMB > math.MaxInt>>20 {
		// The size is shifted into bytes, where a larger value would wrap.
		return fmt.Errorf("-llc-mb must be between 1 and %d, got %d", math.MaxInt>>20, *llcMB)
	}
	if err := machineConfig(*llcMB<<20, *llcWays, *noise).Validate(); err != nil {
		return err
	}

	msg := core.RandomMessage(*bits, *seed)
	names := strings.Split(*channels, ",")

	var label string
	var points []int
	var dim *int // the flag each sweep point overrides
	switch *sweep {
	case "":
		fmt.Fprintf(stdout, "%-16s %12s %10s %14s %14s\n", "channel", "Mb/s", "err%", "sender cyc", "receiver cyc")
		for _, name := range names {
			res, err := runChannel(name, msg, *llcMB<<20, *llcWays, *noise)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-16s %12.2f %10.2f %14d %14d\n",
				res.Channel, res.ThroughputMbps, res.ErrorRate*100, res.SenderCycles, res.ReceiverCycles)
		}
		return nil
	case "size":
		label, points, dim = "LLC(MB)", []int{1, 2, 4, 8, 16, 32, 64, 128}, llcMB
	case "ways":
		label, points, dim = "ways", []int{2, 4, 8, 16, 32, 64, 128}, llcWays
	default:
		return fmt.Errorf("unknown sweep %q (want 'size' or 'ways')", *sweep)
	}

	fmt.Fprintf(stdout, "%-10s", label)
	for _, name := range names {
		fmt.Fprintf(stdout, " %14s", strings.TrimSpace(name))
	}
	fmt.Fprintln(stdout)
	for _, p := range points {
		*dim = p
		fmt.Fprintf(stdout, "%-10d", p)
		for _, name := range names {
			res, err := runChannel(name, msg, *llcMB<<20, *llcWays, *noise)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, " %14.2f", res.ThroughputMbps)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// shortNames maps this command's spellings of the two DRAMA baselines,
// which the default -channels value uses, to their core.Channels names.
var shortNames = map[string]string{"clflush": "drama-clflush", "eviction": "drama-eviction"}

func runChannel(name string, msg []bool, llcBytes, llcWays int, noise float64) (core.Result, error) {
	name = strings.TrimSpace(name)
	if long, ok := shortNames[name]; ok {
		name = long
	}
	ch, ok := core.ChannelByName(name)
	if !ok {
		return core.Result{}, fmt.Errorf("unknown channel %q", name)
	}
	m, err := sim.New(machineConfig(llcBytes, llcWays, noise))
	if err != nil {
		return core.Result{}, err
	}
	return ch.Run(m, msg, core.Options{})
}

// machineConfig is the machine every run of this command simulates: the
// Table 2 defaults with the flags' LLC and noise.
func machineConfig(llcBytes, llcWays int, noise float64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.LLCBytes = llcBytes
	cfg.LLCWays = llcWays
	cfg.Noise.EventsPerMCycle = noise
	return cfg
}
