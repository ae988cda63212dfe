package figures

import (
	"fmt"

	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/sim"
)

// llcConfig is the default machine with the given LLC geometry.
func llcConfig(llcBytes, llcWays int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.LLCBytes = llcBytes
	cfg.LLCWays = llcWays
	return cfg
}

// RowBufferGap reproduces the Section 3.1 microbenchmark: the latency
// difference between a row-buffer conflict and a hit, which the paper
// reports as 74 CPU cycles at 2.6 GHz.
func RowBufferGap(Scale) (Report, error) {
	m, err := machines.Get(sim.DefaultConfig())
	if err != nil {
		return Report{}, err
	}
	defer machines.Put(m)
	c := m.Core(0)
	// Warm translations so the microbenchmark isolates DRAM timing, then
	// open a row, measure a hit, and measure a conflict far enough from
	// the activation that no tRAS stall inflates it.
	c.TranslateTouch(m.AddrFor(0, 10, 0))
	c.TranslateTouch(m.AddrFor(0, 20, 0))
	c.LoadUncached(m.AddrFor(0, 10, 0))
	hit := c.LoadUncached(m.AddrFor(0, 10, 64))
	c.Advance(500)
	conflict := c.LoadUncached(m.AddrFor(0, 20, 0))
	gap := conflict - hit
	return Report{
		ID:    "§3.1",
		Title: "Row buffer conflict vs. hit latency gap",
		Rows: []Row{
			{Label: "conflict - hit", Paper: "74 cyc", Measured: fmtCycles(gap)},
			{Label: "hit latency", Paper: "-", Measured: fmtCycles(hit)},
			{Label: "conflict latency", Paper: "-", Measured: fmtCycles(conflict)},
		},
	}, nil
}

// Table1 reproduces the attack-primitive property matrix.
func Table1(Scale) (Report, error) {
	m, err := machines.Get(sim.DefaultConfig())
	if err != nil {
		return Report{}, err
	}
	defer machines.Put(m)
	rep := Report{ID: "Table 1", Title: "Efficiency and effectiveness of attack primitives"}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, p := range core.Table1(m) {
		isa := mark(p.ISAGuaranteed)
		if p.NotApplicable {
			isa = "n/a"
		}
		rep.Rows = append(rep.Rows, Row{
			Label: p.Primitive.String(),
			Paper: "see Table 1",
			Measured: fmt.Sprintf("noLookup=%s noExtraMem=%s detectable=%s isa=%s latency=%d",
				mark(p.NoCacheLookup), mark(p.NoExcessiveMemAccesses), mark(p.TimingDetectable), isa, p.MeasuredLatency),
		})
	}
	return rep, nil
}

// Table2 dumps the simulated system configuration next to the paper's.
func Table2(Scale) (Report, error) {
	cfg := sim.DefaultConfig()
	t := cfg.DRAM.Timing
	return Report{
		ID:    "Table 2",
		Title: "Simulated system configuration",
		Rows: []Row{
			{Label: "CPU", Paper: "4-core OoO x86, 2.6 GHz", Measured: fmt.Sprintf("%d cores @ %.1f GHz", cfg.Cores, sim.FrequencyHz/1e9)},
			{Label: "L1D", Paper: "32 KB 8-way 4-cycle", Measured: "32 KB 8-way 4-cycle LRU + IP-stride"},
			{Label: "L2", Paper: "2 MB 16-way 16-cycle SRRIP", Measured: "2 MB 16-way 16-cycle SRRIP + streamer"},
			{Label: "LLC", Paper: "2 MB/core 16-way 50-cycle SRRIP", Measured: fmt.Sprintf("%d MB %d-way SRRIP (CACTI-fitted latency)", cfg.LLCBytes>>20, cfg.LLCWays)},
			{Label: "DRAM", Paper: "DDR4-2400, 16 banks, 4 groups, 8 KB rows", Measured: fmt.Sprintf("%d banks, %d groups, %d B rows", cfg.DRAM.TotalBanks(), cfg.DRAM.BankGroups, cfg.DRAM.RowBytes)},
			{Label: "tRCD/tRP/tCAS", Paper: "13.5 ns each", Measured: fmt.Sprintf("%d/%d/%d cyc (= 13.5 ns at 2.6 GHz)", t.TRCD, t.TRP, t.TCAS)},
			{Label: "Row policy", Paper: "open, 100 ns timeout", Measured: "open, no timeout (see DESIGN.md reconciliation)"},
			{Label: "PEI overhead", Paper: "3 cycles", Measured: fmt.Sprintf("%d cycles", cfg.PEICosts.PEIOverhead)},
		},
	}, nil
}

// llcPoint measures one (LLC size, ways) point of Figures 2 and 3 into a
// row's Measured column: direct access and DRAMA-eviction, each on its own
// machine as New builds it, plus the CACTI-modeled eviction latency.
func llcPoint(msg []bool, mb, ways int) (Row, error) {
	cfg := llcConfig(mb<<20, ways)
	m, err := machines.Get(cfg)
	if err != nil {
		return Row{}, err
	}
	direct, err := core.RunDirect(m, msg, core.Options{})
	machines.Put(m)
	if err != nil {
		return Row{}, err
	}
	if m, err = machines.Get(cfg); err != nil {
		return Row{}, err
	}
	baseline, err := core.RunDRAMAEviction(m, msg, core.Options{})
	machines.Put(m)
	if err != nil {
		return Row{}, err
	}
	evLat := cacti.EvictionLatency(float64(mb), ways, 104, sim.DefaultSoftCosts().EvictionMLP)
	return Row{Measured: fmt.Sprintf("direct %s, baseline %s, eviction %s",
		fmtMbps(direct.ThroughputMbps), fmtMbps(baseline.ThroughputMbps), fmtCycles(evLat))}, nil
}

// Fig2 reproduces the LLC-size sweep of Section 3.3: direct-access attack
// throughput (flat, ~11.27 Mb/s) vs. the eviction-based baseline (falling),
// plus the eviction latency curve.
func Fig2(scale Scale) (Report, error) {
	rep := Report{ID: "Figure 2", Title: "Impact of LLC size on covert-channel throughput and eviction latency"}
	msg := core.RandomMessage(scale.Bits(), 2)
	sizes := []int{4, 8, 16, 32, 64, 128}
	if scale == ScaleQuick {
		sizes = []int{4, 16, 128}
	}
	rows, err := sim.Fan(len(sizes), func(i int) (Row, error) {
		return llcPoint(msg, sizes[i], 16)
	})
	if err != nil {
		return Report{}, err
	}
	for i, mb := range sizes {
		rows[i].Label = fmt.Sprintf("LLC %3d MB", mb)
		rows[i].Paper = "direct 11.27 flat; baseline <=2.29 falling"
	}
	rep.Rows = rows
	return rep, nil
}

// Fig3 reproduces the LLC-associativity sweep of Section 3.3.
func Fig3(scale Scale) (Report, error) {
	rep := Report{ID: "Figure 3", Title: "Impact of LLC associativity on covert-channel throughput and eviction latency"}
	msg := core.RandomMessage(scale.Bits(), 3)
	ways := []int{2, 4, 8, 16, 32, 64, 128}
	if scale == ScaleQuick {
		ways = []int{2, 16, 128}
	}
	rows, err := sim.Fan(len(ways), func(i int) (Row, error) {
		return llcPoint(msg, 16, ways[i])
	})
	if err != nil {
		return Report{}, err
	}
	for i, w := range ways {
		rows[i].Label = fmt.Sprintf("%3d ways", w)
		rows[i].Paper = "direct flat; baseline falls with ways"
	}
	rep.Rows = rows
	return rep, nil
}

// Fig8 reproduces the proof-of-concept: a 16-bit message over 16 banks with
// the receiver's measured latencies, decoded with the 150-cycle threshold.
func Fig8(Scale) (Report, error) {
	msg := []bool{true, true, true, false, false, true, false, false, true, true, true, false, false, true, false, false}
	rep := Report{ID: "Figure 8", Title: "PoC: receiver latency per bank decoding a 16-bit message (threshold 150)"}

	m, err := machines.Get(sim.DefaultConfig())
	if err != nil {
		return Report{}, err
	}
	pnm, err := core.RunPnM(m, msg, core.Options{RecordLatencies: true})
	machines.Put(m)
	if err != nil {
		return Report{}, err
	}
	if m, err = machines.Get(sim.DefaultConfig()); err != nil {
		return Report{}, err
	}
	pumMsg := []bool{false, false, false, true, true, false, true, true, false, false, false, true, true, false, true, true}
	pum, err := core.RunPuM(m, pumMsg, core.Options{RecordLatencies: true})
	machines.Put(m)
	if err != nil {
		return Report{}, err
	}

	band := func(lats []int64, bits []bool, want bool) (int64, int64) {
		lo, hi := int64(1<<62), int64(0)
		for i, l := range lats {
			if bits[i] != want {
				continue
			}
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if hi == 0 {
			return 0, 0
		}
		return lo, hi
	}
	p0lo, p0hi := band(pnm.Latencies, msg, false)
	p1lo, p1hi := band(pnm.Latencies, msg, true)
	u0lo, u0hi := band(pum.Latencies, pumMsg, false)
	u1lo, u1hi := band(pum.Latencies, pumMsg, true)
	rep.Rows = []Row{
		{Label: "PnM logic-0 latency band", Paper: "~70-100 cyc", Measured: fmt.Sprintf("%d-%d cyc", p0lo, p0hi)},
		{Label: "PnM logic-1 latency band", Paper: "~170-240 cyc", Measured: fmt.Sprintf("%d-%d cyc", p1lo, p1hi)},
		{Label: "PnM decode errors", Paper: "0/16", Measured: fmt.Sprintf("%d/16", pnm.Bits-pnm.Correct)},
		{Label: "PuM logic-0 latency band", Paper: "~70-100 cyc", Measured: fmt.Sprintf("%d-%d cyc", u0lo, u0hi)},
		{Label: "PuM logic-1 latency band", Paper: "~170-240 cyc", Measured: fmt.Sprintf("%d-%d cyc", u1lo, u1hi)},
		{Label: "PuM decode errors", Paper: "0/16", Measured: fmt.Sprintf("%d/16", pum.Bits-pum.Correct)},
	}
	return rep, nil
}

// Fig9 reproduces the headline throughput comparison across LLC sizes,
// one series per channel of core.Channels that the figure plots.
func Fig9(scale Scale) (Report, error) {
	rep := Report{ID: "Figure 9", Title: "Covert-channel leakage throughput vs. LLC size"}
	msg := core.RandomMessage(scale.Bits(), 4)
	// Each plotted channel's series label and paper value. Direct access
	// has no series: it is Figure 2's idealized attack.
	series := map[string]Row{
		"pnm":            {Label: "IMPACT-PnM", Paper: "8.2 Mb/s flat"},
		"pum":            {Label: "IMPACT-PuM", Paper: "14.8 Mb/s flat"},
		"drama-clflush":  {Label: "DRAMA-clflush", Paper: "~2.3 Mb/s falling"},
		"drama-eviction": {Label: "DRAMA-eviction", Paper: "lowest, falling"},
		"dma":            {Label: "DMA engine", Paper: "0.81 Mb/s flat"},
	}
	sizes := []int{1, 8, 128}
	if scale == ScaleFull {
		sizes = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	var channels []core.NamedChannel
	for _, ch := range core.Channels() {
		if _, ok := series[ch.Name]; ok {
			channels = append(channels, ch)
		}
	}
	// One cell per plotted channel and LLC size, channel-major.
	cells, err := sim.Fan(len(channels)*len(sizes), func(i int) (string, error) {
		ch, mb := channels[i/len(sizes)], sizes[i%len(sizes)]
		m, err := machines.Get(llcConfig(mb<<20, 16))
		if err != nil {
			return "", err
		}
		defer machines.Put(m)
		res, err := ch.Run(m, msg, core.Options{})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%dMB:%.2f", mb, res.ThroughputMbps), nil
	})
	if err != nil {
		return Report{}, err
	}
	for i, ch := range channels {
		row := series[ch.Name]
		row.Measured = join(cells[i*len(sizes) : (i+1)*len(sizes)]...)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Fig10 reproduces the sender/receiver cycle breakdown of the two IMPACT
// channels.
func Fig10(scale Scale) (Report, error) {
	bits := scale.Bits()
	msg := core.RandomMessage(bits, 5)
	m, err := machines.Get(sim.DefaultConfig())
	if err != nil {
		return Report{}, err
	}
	pnm, err := core.RunPnM(m, msg, core.Options{})
	machines.Put(m)
	if err != nil {
		return Report{}, err
	}
	if m, err = machines.Get(sim.DefaultConfig()); err != nil {
		return Report{}, err
	}
	pum, err := core.RunPuM(m, msg, core.Options{})
	machines.Put(m)
	if err != nil {
		return Report{}, err
	}
	batches := int64((bits + 15) / 16)
	ratio := float64(pnm.SenderCycles) / float64(pum.SenderCycles)
	return Report{
		ID:    "Figure 10",
		Title: "Per-batch sender/receiver time breakdown (16-bit batches)",
		Rows: []Row{
			{Label: "PnM sender / batch", Paper: "dominant", Measured: fmtCycles(pnm.SenderCycles / batches)},
			{Label: "PnM receiver / batch", Paper: "-", Measured: fmtCycles(pnm.ReceiverCycles / batches)},
			{Label: "PuM sender / batch", Paper: "11.1x less than PnM", Measured: fmtCycles(pum.SenderCycles / batches)},
			{Label: "PuM receiver / batch", Paper: "similar to PnM", Measured: fmtCycles(pum.ReceiverCycles / batches)},
			{Label: "sender ratio PnM/PuM", Paper: "11.1x", Measured: fmt.Sprintf("%.1fx", ratio)},
		},
	}, nil
}
