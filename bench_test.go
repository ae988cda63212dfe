// Package repro's root benchmark harness regenerates every table and figure
// of the paper's evaluation as a testing.B benchmark, reporting the paper's
// metric (throughput, error rate, latency gap, normalized execution time) as
// custom benchmark metrics. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark corresponds to one artifact of internal/figures (the IDs
// impact-figures -list prints); the Ablation* benchmarks each vary one
// modeling choice.
package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/exp/pack"
	"repro/internal/figures"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// quietMachine builds a machine with the given LLC geometry and no noise.
func quietMachine(b *testing.B, llcBytes, llcWays int) *sim.Machine {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.LLCBytes = llcBytes
	cfg.LLCWays = llcWays
	m, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// flatMem is a constant-latency backend for isolating one cache level.
type flatMem struct{}

func (flatMem) Access(now int64, addr uint64, write bool) int64 { return 100 }

// BenchmarkCacheAccess measures the simulator's per-access hot path: a
// hit on an L1-shaped LRU level, with fixed-slot counters and precomputed
// tag shifts allocation- and hash-free (baseline with string-map counters
// and per-access setBits recomputation: ~18.8 ns/op), and hits and misses
// on a 128-way SRRIP level, Figure 3's widest LLC. The 128-way cases cycle
// lines through one set: 128, so every access hits, on average half way
// into the set, or 129, so every access misses and evicts a line.
func BenchmarkCacheAccess(b *testing.B) {
	level := func(b *testing.B, cfg cache.Config) *cache.Cache {
		c, err := cache.New(cfg, flatMem{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		return c
	}
	hit := func(b *testing.B, cfg cache.Config) {
		c := level(b, cfg)
		c.Access(0, 0x1000, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(int64(i), 0x1000, false)
		}
	}
	cycle := func(b *testing.B, cfg cache.Config, lines int) {
		c := level(b, cfg)
		stride := uint64(c.Sets()) << c.LineBits()
		for l := 0; l < lines; l++ {
			c.Access(0, 0x1000+uint64(l)*stride, false)
		}
		b.ResetTimer()
		for i, l := 0, 0; i < b.N; i++ {
			c.Access(int64(i), 0x1000+uint64(l)*stride, false)
			if l++; l == lines {
				l = 0
			}
		}
	}
	l1 := func(ways int) cache.Config {
		return cache.Config{Name: "l1", SizeBytes: 32 << 10, Ways: ways, LineBytes: 64, Latency: 4, Policy: cache.PolicyLRU}
	}
	llc := cache.Config{Name: "llc", SizeBytes: 16 << 20, Ways: 128, LineBytes: 64, Latency: 60, Policy: cache.PolicySRRIP}
	b.Run("8way-hit", func(b *testing.B) { hit(b, l1(8)) })
	b.Run("direct-hit", func(b *testing.B) { hit(b, l1(1)) })
	b.Run("128way-hit", func(b *testing.B) { cycle(b, llc, llc.Ways) })
	b.Run("128way-miss", func(b *testing.B) { cycle(b, llc, llc.Ways+1) })
}

// BenchmarkBankAccess measures the DRAM device's per-access hot path on a
// row-buffer hit, including outcome accounting.
func BenchmarkBankAccess(b *testing.B) {
	dev, err := dram.NewDevice(dram.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dev.Access(0, 0, 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Access(int64(i)*200, 0, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureSuite compares the sequential experiment runner against
// the worker-pool runner over the full quick-scale artifact set; the
// parallel variant must produce byte-identical reports in a fraction of
// the wall-clock time on a multi-core host. Both fan each figure's runs
// out over GOMAXPROCS, so -cpu 1 times the suite on one core.
func BenchmarkFigureSuite(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := figures.All(figures.ScaleQuick); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportMetric(float64(runtime.NumCPU()), "cores")
		for i := 0; i < b.N; i++ {
			if _, err := figures.RunParallel(figures.ScaleQuick, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRowBufferLatencyGap regenerates the Section 3.1 microbenchmark:
// the ~74-cycle conflict-vs-hit gap.
func BenchmarkRowBufferLatencyGap(b *testing.B) {
	var gap int64
	for i := 0; i < b.N; i++ {
		m := quietMachine(b, 8<<20, 16)
		c := m.Core(0)
		c.TranslateTouch(m.AddrFor(0, 10, 0))
		c.TranslateTouch(m.AddrFor(0, 20, 0))
		c.LoadUncached(m.AddrFor(0, 10, 0))
		hit := c.LoadUncached(m.AddrFor(0, 10, 64))
		c.Advance(500)
		conflict := c.LoadUncached(m.AddrFor(0, 20, 0))
		gap = conflict - hit
	}
	b.ReportMetric(float64(gap), "gap-cycles")
	if gap < 60 || gap > 90 {
		b.Fatalf("gap %d cycles outside the paper's ~74-cycle band", gap)
	}
}

// channelBench times Machine.Reset plus one transmission on a machine held
// across iterations, as BenchmarkColdRun/pooled does: assembling a machine
// costs about ten pooled runs, so building one per iteration would mostly
// time sim.New. Reset is state-free (the pool determinism
// contract), so the reported paper metrics are a fresh machine's.
func channelBench(b *testing.B, cfg sim.Config, bits int, run func(*sim.Machine, []bool, core.Options) (core.Result, error)) {
	b.Helper()
	msg := core.RandomMessage(bits, 42)
	m, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	cycle := func() {
		if !m.Reset(cfg) {
			b.Fatal("Reset refused the machine's own configuration")
		}
		if res, err = run(m, msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	cycle() // dirty the machine, as a pooled one always is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	b.ReportMetric(res.ThroughputMbps, "Mb/s")
	b.ReportMetric(res.ErrorRate*100, "err%")
	b.ReportMetric(float64(res.Cycles)/float64(bits), "cyc/bit")
}

// BenchmarkFig9PnM is the IMPACT-PnM headline number (paper: 8.2 Mb/s).
func BenchmarkFig9PnM(b *testing.B) { channelBench(b, sim.DefaultConfig(), 4096, core.RunPnM) }

// BenchmarkFig9PuM is the IMPACT-PuM headline number (paper: 14.8 Mb/s).
func BenchmarkFig9PuM(b *testing.B) { channelBench(b, sim.DefaultConfig(), 4096, core.RunPuM) }

// BenchmarkFig9DRAMAClflush is the strongest prior-work baseline
// (paper: ~2.3 Mb/s at the default LLC).
func BenchmarkFig9DRAMAClflush(b *testing.B) {
	channelBench(b, sim.DefaultConfig(), 2048, core.RunDRAMAClflush)
}

// BenchmarkFig9DRAMAEviction is the eviction-set baseline (paper: slowest).
func BenchmarkFig9DRAMAEviction(b *testing.B) {
	channelBench(b, sim.DefaultConfig(), 512, core.RunDRAMAEviction)
}

// BenchmarkFig9DMA is the DMA-engine baseline (paper: 0.81 Mb/s).
func BenchmarkFig9DMA(b *testing.B) { channelBench(b, sim.DefaultConfig(), 1024, core.RunDMA) }

// BenchmarkDirectAccess is the idealized direct-access attack of Section
// 3.3, the flat line of Figures 2 and 3 (paper: 11.27 Mb/s).
func BenchmarkDirectAccess(b *testing.B) { channelBench(b, sim.DefaultConfig(), 4096, core.RunDirect) }

// BenchmarkPnMAdaptive is the adaptive attacker of Section 7.4 under
// ACT-Mild, where it idles through the defense's penalty epochs.
func BenchmarkPnMAdaptive(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Mem.Defense = memctrl.DefenseAdaptive
	cfg.Mem.ACT = memctrl.ACTMild()
	channelBench(b, cfg, 4096, core.RunPnMAdaptive)
}

// BenchmarkFig2LLCSizeSweep regenerates the Figure 2 series: the direct
// attack stays flat while the eviction baseline collapses with LLC size.
func BenchmarkFig2LLCSizeSweep(b *testing.B) {
	msg := core.RandomMessage(512, 2)
	for i := 0; i < b.N; i++ {
		var direct4, direct128, baseline4, baseline128 core.Result
		var err error
		if direct4, err = core.RunDirect(quietMachine(b, 4<<20, 16), msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if direct128, err = core.RunDirect(quietMachine(b, 128<<20, 16), msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if baseline4, err = core.RunDRAMAEviction(quietMachine(b, 4<<20, 16), msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if baseline128, err = core.RunDRAMAEviction(quietMachine(b, 128<<20, 16), msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(direct4.ThroughputMbps, "direct4MB")
			b.ReportMetric(direct128.ThroughputMbps, "direct128MB")
			b.ReportMetric(baseline4.ThroughputMbps, "evict4MB")
			b.ReportMetric(baseline128.ThroughputMbps, "evict128MB")
			if direct128.ThroughputMbps < direct4.ThroughputMbps*0.9 {
				b.Fatal("direct attack throughput not flat across LLC sizes")
			}
			if baseline128.ThroughputMbps > baseline4.ThroughputMbps/2 {
				b.Fatal("eviction baseline did not collapse with LLC size")
			}
		}
	}
}

// BenchmarkFig3LLCWaySweep regenerates the Figure 3 series over LLC ways.
// Its machines come from one pool that outlives the iterations, as
// Figure 3's come from the figures' shared pool.
func BenchmarkFig3LLCWaySweep(b *testing.B) {
	msg := core.RandomMessage(512, 3)
	pool := sim.NewPool()
	evict := func(ways int) core.Result {
		cfg := sim.DefaultConfig()
		cfg.LLCBytes = 16 << 20
		cfg.LLCWays = ways
		m, err := pool.Get(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunDRAMAEviction(m, msg, core.Options{})
		pool.Put(m)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		low, high := evict(2), evict(128)
		if i == b.N-1 {
			b.ReportMetric(low.ThroughputMbps, "evict2way")
			b.ReportMetric(high.ThroughputMbps, "evict128way")
			if high.ThroughputMbps > low.ThroughputMbps/4 {
				b.Fatal("eviction baseline did not collapse with associativity")
			}
		}
	}
}

// BenchmarkFig8PoC regenerates the 16-bit proof of concept with the paper's
// 150-cycle threshold; the transmission must decode perfectly.
func BenchmarkFig8PoC(b *testing.B) {
	msg := []bool{true, true, true, false, false, true, false, false,
		true, true, true, false, false, true, false, false}
	var pnm, pum core.Result
	var err error
	for i := 0; i < b.N; i++ {
		if pnm, err = core.RunPnM(quietMachine(b, 8<<20, 16), msg, core.Options{RecordLatencies: true}); err != nil {
			b.Fatal(err)
		}
		if pum, err = core.RunPuM(quietMachine(b, 8<<20, 16), msg, core.Options{RecordLatencies: true}); err != nil {
			b.Fatal(err)
		}
	}
	if pnm.Correct != 16 || pum.Correct != 16 {
		b.Fatalf("PoC decode errors: pnm %d/16, pum %d/16", pnm.Correct, pum.Correct)
	}
	b.ReportMetric(float64(pnm.Latencies[3]), "pnm-logic0-cyc")
	b.ReportMetric(float64(pnm.Latencies[0]), "pnm-logic1-cyc")
}

// BenchmarkFig10Breakdown regenerates the sender/receiver time breakdown:
// the PuM sender must be roughly an order of magnitude cheaper.
func BenchmarkFig10Breakdown(b *testing.B) {
	msg := core.RandomMessage(2048, 5)
	var pnm, pum core.Result
	var err error
	for i := 0; i < b.N; i++ {
		if pnm, err = core.RunPnM(quietMachine(b, 8<<20, 16), msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if pum, err = core.RunPuM(quietMachine(b, 8<<20, 16), msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	ratio := float64(pnm.SenderCycles) / float64(pum.SenderCycles)
	b.ReportMetric(ratio, "sender-ratio")
	b.ReportMetric(float64(pnm.ReceiverCycles)/float64(pum.ReceiverCycles), "receiver-ratio")
	if ratio < 4 {
		b.Fatalf("PnM/PuM sender ratio %.1f too low (paper: 11.1x)", ratio)
	}
}

// BenchmarkFig11SideChannel regenerates the bank sweep of the genomics side
// channel at its two endpoints, as quick Figure 11 does: one reference,
// index and read set shared by both bank counts.
func BenchmarkFig11SideChannel(b *testing.B) {
	var results []core.SideChannelResult
	var err error
	for i := 0; i < b.N; i++ {
		if results, err = figures.SideChannel([]int{1024, 8192}, 1<<18, 8000, 3, 7); err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := results[0], results[1]
	b.ReportMetric(lo.ThroughputMbps, "1024banks-Mb/s")
	b.ReportMetric(hi.ThroughputMbps, "8192banks-Mb/s")
	b.ReportMetric(lo.ErrorRate*100, "1024banks-err%")
	b.ReportMetric(hi.ErrorRate*100, "8192banks-err%")
	if hi.ThroughputMbps >= lo.ThroughputMbps {
		b.Fatal("side-channel throughput did not decline with bank count")
	}
	if hi.ErrorRate <= lo.ErrorRate {
		b.Fatal("side-channel error did not rise with bank count")
	}
}

// BenchmarkFig12Defenses regenerates the defense performance comparison.
// Its machines come from one pool that outlives the calls, as Figure 12's
// come from the figures' shared pool.
func BenchmarkFig12Defenses(b *testing.B) {
	var rows []workloads.DefenseRow
	var err error
	pool := sim.NewPool()
	for i := 0; i < b.N; i++ {
		rows, err = workloads.RunDefenseComparison(pool, workloads.SmallSuiteConfig(), workloads.DefenseConfigs())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		b.ReportMetric(row.GMean, row.Defense+"-gmean")
	}
}

// BenchmarkACTThroughputReduction regenerates the Section 7.4 analysis.
func BenchmarkACTThroughputReduction(b *testing.B) {
	msg := core.RandomMessage(1024, 99)
	run := func(mem memctrl.Config) core.Result {
		cfg := sim.DefaultConfig()
		cfg.Mem = mem
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunPnM(m, msg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var base, aggr core.Result
	for i := 0; i < b.N; i++ {
		base = run(memctrl.DefaultConfig())
		mem := memctrl.DefaultConfig()
		mem.Defense = memctrl.DefenseAdaptive
		mem.ACT = memctrl.ACTAggressive()
		aggr = run(mem)
	}
	reduction := 100 * (1 - aggr.EffectiveThroughputMbps/base.EffectiveThroughputMbps)
	b.ReportMetric(reduction, "aggr-reduction%")
	if reduction < 70 {
		b.Fatalf("ACT-Aggressive reduction %.0f%% below the paper's 72%%", reduction)
	}
}

// BenchmarkAblationRowPolicy shows why the model keeps rows open instead of
// applying Table 2's 100 ns open-row timeout (the "Row policy" row of the
// Table 2 report): shrinking the timeout below the batch period kills the
// channel.
func BenchmarkAblationRowPolicy(b *testing.B) {
	msg := core.RandomMessage(1024, 7)
	run := func(timeout int64) core.Result {
		cfg := sim.DefaultConfig()
		cfg.DRAM.Timing.RowTimeout = timeout
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunPnM(m, msg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var open, strict core.Result
	for i := 0; i < b.N; i++ {
		open = run(0)
		strict = run(260) // the literal 100 ns of Table 2
	}
	b.ReportMetric(open.EffectiveThroughputMbps, "no-timeout-Mb/s")
	b.ReportMetric(strict.EffectiveThroughputMbps, "100ns-timeout-Mb/s")
	if strict.EffectiveThroughputMbps > open.EffectiveThroughputMbps/2 {
		b.Fatal("a 100 ns timeout should cripple the channel, which is why the model keeps rows open")
	}
}

// BenchmarkAblationBatchSize sweeps the number of banks used per batch.
func BenchmarkAblationBatchSize(b *testing.B) {
	msg := core.RandomMessage(1024, 8)
	run := func(banks int) core.Result {
		m := quietMachine(b, 8<<20, 16)
		set := make([]int, banks)
		for i := range set {
			set[i] = i
		}
		res, err := core.RunPuM(m, msg, core.Options{Banks: set})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var narrow, wide core.Result
	for i := 0; i < b.N; i++ {
		narrow = run(2)
		wide = run(16)
	}
	b.ReportMetric(narrow.ThroughputMbps, "2banks-Mb/s")
	b.ReportMetric(wide.ThroughputMbps, "16banks-Mb/s")
	if wide.ThroughputMbps <= narrow.ThroughputMbps {
		b.Fatal("bank parallelism did not raise throughput")
	}
}

// BenchmarkAblationThreshold sweeps the decode threshold around the paper's
// 150-cycle operating point.
func BenchmarkAblationThreshold(b *testing.B) {
	msg := core.RandomMessage(1024, 9)
	run := func(threshold int64) core.Result {
		res, err := core.RunPnM(quietMachine(b, 8<<20, 16), msg, core.Options{Threshold: threshold})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var low, mid, high core.Result
	for i := 0; i < b.N; i++ {
		low = run(60)   // below the logic-0 band: everything decodes 1
		mid = run(150)  // the paper's threshold
		high = run(400) // above the logic-1 band: everything decodes 0
	}
	b.ReportMetric(low.ErrorRate*100, "thr60-err%")
	b.ReportMetric(mid.ErrorRate*100, "thr150-err%")
	b.ReportMetric(high.ErrorRate*100, "thr400-err%")
	if mid.ErrorRate > 0.02 {
		b.Fatalf("threshold 150 error %.1f%%", mid.ErrorRate*100)
	}
	if low.ErrorRate < 0.3 || high.ErrorRate < 0.3 {
		b.Fatal("extreme thresholds should break decoding")
	}
}

// BenchmarkAblationNoise sweeps the background-activity intensity.
func BenchmarkAblationNoise(b *testing.B) {
	msg := core.RandomMessage(2048, 10)
	run := func(noise float64) core.Result {
		cfg := sim.DefaultConfig()
		cfg.Noise.EventsPerMCycle = noise
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunPnM(m, msg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var quiet, noisy core.Result
	for i := 0; i < b.N; i++ {
		quiet = run(0)
		noisy = run(300)
	}
	b.ReportMetric(quiet.ErrorRate*100, "quiet-err%")
	b.ReportMetric(noisy.ErrorRate*100, "noisy-err%")
	if noisy.ErrorRate <= quiet.ErrorRate {
		b.Fatal("noise had no effect on error rate")
	}
}

// BenchmarkAblationACTConfig traces the ACT performance-security frontier.
func BenchmarkAblationACTConfig(b *testing.B) {
	msg := core.RandomMessage(1024, 11)
	attack := func(penalty int64) core.Result {
		mem := memctrl.DefaultConfig()
		mem.Defense = memctrl.DefenseAdaptive
		mem.ACT = memctrl.ACTConfig{EpochCycles: 2600, ConflictThreshold: 1, PenaltyEpochs: penalty}
		cfg := sim.DefaultConfig()
		cfg.Mem = mem
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunPnM(m, msg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var mild, aggressive core.Result
	for i := 0; i < b.N; i++ {
		mild = attack(2)
		aggressive = attack(4000)
	}
	b.ReportMetric(mild.EffectiveThroughputMbps, "penalty2-Mb/s")
	b.ReportMetric(aggressive.EffectiveThroughputMbps, "penalty4000-Mb/s")
	if aggressive.EffectiveThroughputMbps >= mild.EffectiveThroughputMbps {
		b.Fatal("longer penalties did not reduce attack throughput")
	}
}

// BenchmarkAblationMappingScheme compares address-mapping schemes: both
// must sustain the channel (the attack composes addresses per scheme).
func BenchmarkAblationMappingScheme(b *testing.B) {
	msg := core.RandomMessage(1024, 12)
	run := func(scheme dram.MappingScheme) core.Result {
		cfg := sim.DefaultConfig()
		cfg.Mapping = scheme
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunPnM(m, msg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var xor, linear core.Result
	for i := 0; i < b.N; i++ {
		xor = run(dram.MapBankXOR)
		linear = run(dram.MapRowInterleaved)
	}
	b.ReportMetric(xor.ThroughputMbps, "bankxor-Mb/s")
	b.ReportMetric(linear.ThroughputMbps, "rowinterleaved-Mb/s")
	if xor.ErrorRate > 0.05 || linear.ErrorRate > 0.05 {
		b.Fatal("channel broken under one of the mapping schemes")
	}
}

// BenchmarkWorkloadBFS measures the simulator's own execution speed on the
// BFS kernel (host ns per simulated access).
func BenchmarkWorkloadBFS(b *testing.B) {
	g := workloads.NewRandomGraph(1<<12, 8, 11)
	for i := 0; i < b.N; i++ {
		m, err := sim.New(sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		res := workloads.BFS{G: g}.Run(m.Core(0))
		if res.Accesses == 0 {
			b.Fatal("no accesses")
		}
	}
}

// BenchmarkAblationRefresh quantifies DDR4 refresh's effect on the channel:
// a 4.5% duty cycle of tRFC stalls plus row closures.
func BenchmarkAblationRefresh(b *testing.B) {
	msg := core.RandomMessage(2048, 13)
	run := func(maint dram.Maintenance) core.Result {
		cfg := sim.DefaultConfig()
		cfg.Noise.EventsPerMCycle = 0
		cfg.DRAM.Maintenance = maint
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunPnM(m, msg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var off, on core.Result
	for i := 0; i < b.N; i++ {
		off = run(dram.Maintenance{})
		on = run(dram.DDR4Refresh())
	}
	b.ReportMetric(off.ThroughputMbps, "no-refresh-Mb/s")
	b.ReportMetric(on.ThroughputMbps, "refresh-Mb/s")
	b.ReportMetric(on.ErrorRate*100, "refresh-err%")
	if on.ThroughputMbps >= off.ThroughputMbps {
		b.Fatal("refresh had no cost")
	}
}

// BenchmarkSection84RFM regenerates the Section 8.4 RowHammer-mitigation
// analysis: preventive-action stalls are visible but tolerable.
func BenchmarkSection84RFM(b *testing.B) {
	msg := core.RandomMessage(2048, 14)
	run := func(maint dram.Maintenance, opt core.Options) core.Result {
		cfg := sim.DefaultConfig()
		cfg.Noise.EventsPerMCycle = 0
		cfg.DRAM.Maintenance = maint
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunPnM(m, msg, opt)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var plain, rfm core.Result
	for i := 0; i < b.N; i++ {
		plain = run(dram.Maintenance{}, core.Options{})
		rfm = run(dram.DDR5RFM(), core.Options{MaintenanceStall: dram.DDR5RFM().MitigationPenalty})
	}
	b.ReportMetric(plain.ThroughputMbps, "plain-Mb/s")
	b.ReportMetric(rfm.ThroughputMbps, "rfm-filtered-Mb/s")
	b.ReportMetric(rfm.ErrorRate*100, "rfm-err%")
}

// BenchmarkMemoryMassaging measures the cost of the attack's setup phase:
// discovering co-located address pairs purely by timing.
func BenchmarkMemoryMassaging(b *testing.B) {
	var res core.MassageResult
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Noise.EventsPerMCycle = 0
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err = core.MassageMemory(m, m.Core(0), 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.ProbeCount), "probes")
	b.ReportMetric(float64(res.Cycles), "setup-cycles")
}

// BenchmarkReliableFraming measures the coded channel's goodput on a noisy
// machine.
func BenchmarkReliableFraming(b *testing.B) {
	data := core.RandomMessage(2048, 15)
	var res core.ReliableResult
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Noise.EventsPerMCycle = 250
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err = core.RunReliable(m, data, core.Options{}, core.RunPnM)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GoodputMbps, "goodput-Mb/s")
	b.ReportMetric(float64(res.Coded.ResidualErrors), "residual-bits")
	b.ReportMetric(res.Raw.ErrorRate*100, "raw-err%")
}

// BenchmarkPipelinedPnM measures the overlapped-protocol variant of
// Section 4.1 (sender and receiver work concurrently on disjoint bank
// halves).
func BenchmarkPipelinedPnM(b *testing.B) {
	msg := core.RandomMessage(4096, 16)
	var serial, pipelined core.Result
	var err error
	for i := 0; i < b.N; i++ {
		if serial, err = core.RunPnM(quietMachine(b, 8<<20, 16), msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if pipelined, err = core.RunPnMPipelined(quietMachine(b, 8<<20, 16), msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(serial.ThroughputMbps, "serial-Mb/s")
	b.ReportMetric(pipelined.ThroughputMbps, "pipelined-Mb/s")
	if pipelined.ThroughputMbps <= serial.ThroughputMbps {
		b.Fatal("pipelining did not improve throughput")
	}
}

// BenchmarkServerRun measures the experiment service's POST /v1/run path
// cold (every request against a fresh engine, all runs simulated) vs.
// cached (one shared engine, every run content-addressed into the result
// cache). The gap is the serving-layer win: identical specs are answered
// without touching the simulator. The cached path also pins its
// allocations per POST (measured about 310): decode, expansion, key
// hashing, four memory hits and encoding, with no default config document
// rebuilt per grid point.
func BenchmarkServerRun(b *testing.B) {
	spec := []byte(`{
		"scenario": "covert-pnm",
		"grid": {"llc_bytes": [4194304, 8388608], "mem.defense": ["none", "crp"]}
	}`)
	post := func(b *testing.B, h http.Handler) *httptest.ResponseRecorder {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(spec))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /v1/run = %d: %s", rec.Code, rec.Body)
		}
		return rec
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := exp.NewServer(exp.NewEngine()).Handler()
			post(b, h)
		}
	})

	b.Run("cached", func(b *testing.B) {
		h := exp.NewServer(exp.NewEngine()).Handler()
		warm := post(b, h) // prime the cache outside the timed loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := post(b, h)
			if !bytes.Equal(rec.Body.Bytes(), warm.Body.Bytes()) {
				b.Fatal("cached response drifted from the primed response")
			}
			if rec.Header().Get("X-Cache") != "hit" {
				b.Fatalf("X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
			}
		}
		b.StopTimer()
		allocs := testing.AllocsPerRun(10, func() { post(b, h) })
		b.ReportMetric(allocs, "cached-allocs")
		if allocs > 400 {
			b.Fatalf("a cached POST /v1/run allocates %.0f objects, want at most 400", allocs)
		}
	})

	// The warm path under concurrency: many goroutines hammer one handler
	// with the same spec, so throughput is bounded by the sharded cache and
	// the metrics middleware rather than the simulator. Responses must stay
	// byte-identical to the primed response under contention.
	b.Run("cached-parallel", func(b *testing.B) {
		h := exp.NewServer(exp.NewEngine()).Handler()
		warm := post(b, h)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(spec))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("POST /v1/run = %d: %s", rec.Code, rec.Body)
				}
				if !bytes.Equal(rec.Body.Bytes(), warm.Body.Bytes()) {
					b.Fatal("concurrent cached response drifted")
				}
			}
		})
	})
}

// BenchmarkResultStoreGet is the pinned form of the docs/benchmark.md
// object-count sweep: Get latency on a preloaded pack store at two object
// counts. Pack answers every Get with one in-memory index lookup plus one
// bundle ReadAt, so its per-op time must stay flat as the store grows.
func BenchmarkResultStoreGet(b *testing.B) {
	blob := json.RawMessage(`{"scenario":"covert-pnm","throughput_mbps":8.21,` +
		`"error_rate":0.0042,"cycles":812345,"rows":[11,12,13,14,15,16,17,18]}`)
	keyOf := func(i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprintf("bench-object-%d", i)))
		return hex.EncodeToString(sum[:])
	}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("pack-%d", n), func(b *testing.B) {
			st, err := pack.Open(b.TempDir(), pack.WithAuditInterval(0))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			for i := 0; i < n; i++ {
				st.Put(context.Background(), keyOf(i), blob)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Get(context.Background(), keyOf(i%n)); !ok {
					b.Fatalf("preloaded key %d missing", i%n)
				}
			}
		})
	}
}

// BenchmarkColdRun measures the cold-path provisioning win: a full
// machine assembly plus one quick-scale PnM transmission (fresh) against
// the path a sim.Pool hit runs (pooled): Machine.Reset on a held machine,
// which reuses its allocated bank array, cache arrays, and counter blocks,
// then the same transmission. The pooled loop holds its machine rather
// than cycling it through a Pool, because sync.Pool may drop the machine
// (after a GC or a P switch) and a Get would then rebuild it inside the
// timed loop, at about ten pooled cycles per rebuild.
// TestPoolShapeSharding pins the pool's routing. The pooled subbenchmark
// pins the two regressions that matter: the cold-run speedup must stay
// >= 2x (speedup-x read 25-49 at -cpu 1 on a 2-vCPU Xeon, where fresh
// and pooled ns/op differ 8-10x; see docs/benchmark.md) and the pooled
// cycle must allocate at least 8x less than assembly (measured 4
// allocations against 188).
func BenchmarkColdRun(b *testing.B) {
	cfg := sim.DefaultConfig()
	msg := core.RandomMessage(512, 101)
	cold := func() {
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunPnM(m, msg, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold()
		}
	})

	b.Run("pooled", func(b *testing.B) {
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycle := func() {
			if !m.Reset(cfg) {
				b.Fatal("Reset refused the machine's own configuration")
			}
			if _, err := core.RunPnM(m, msg, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		cycle() // dirty the machine, as a pooled one always is
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
		b.StopTimer()

		pooledPerOp := b.Elapsed() / time.Duration(b.N)
		const reps = 8
		start := time.Now()
		for i := 0; i < reps; i++ {
			cold()
		}
		coldPerOp := time.Since(start) / reps
		ratio := float64(coldPerOp) / float64(pooledPerOp)
		b.ReportMetric(ratio, "speedup-x")
		if ratio < 2 {
			b.Fatalf("pooled cold-run speedup %.2fx below the 2x pin (cold %v, pooled %v)",
				ratio, coldPerOp, pooledPerOp)
		}

		coldAllocs := testing.AllocsPerRun(3, cold)
		pooledAllocs := testing.AllocsPerRun(3, cycle)
		b.ReportMetric(pooledAllocs, "pooled-allocs")
		if pooledAllocs > coldAllocs/8 {
			b.Fatalf("pooled cycle allocates %.0f objects vs %.0f cold: reset is leaking assembly work",
				pooledAllocs, coldAllocs)
		}
	})
}

// BenchmarkPEIExecute measures one synchronous PEI in the memory-side
// steady state a PnM transmission drives: the 256-line locality monitor
// is full and every call touches a fresh line, so each PEI evicts the
// least recently used line and goes to DRAM. It must not allocate.
func BenchmarkPEIExecute(b *testing.B) {
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pei := m.PEI()
	const span = 1 << 20 // distinct lines before the stream wraps
	var line uint64
	var now int64
	execute := func() {
		res, err := pei.Execute(now, (line%span)<<6, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.NearMemory {
			b.Fatalf("PEI on fresh line %d executed host-side", line)
		}
		now = res.CompletedAt
		line++
	}
	for line < 512 {
		execute()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execute()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, execute); allocs != 0 {
		b.Fatalf("memory-side PEI allocates %.1f objects per call", allocs)
	}
}

// BenchmarkSweepExpand measures lazy expansion at the synchronous bound
// (a 64x64 = 4096-run grid): constructing an Expansion costs the decoded
// axes plus one built run regardless of grid size — the property that
// lets the job path afford MaxJobRuns. The benchmark pins that
// construction stays O(axes): fewer allocations than the grid has runs
// (measured about 1.5k).
func BenchmarkSweepExpand(b *testing.B) {
	grid := func(path string, n int) string {
		vals := make([]json.RawMessage, n)
		for i := range vals {
			vals[i] = json.RawMessage(fmt.Sprint(i))
		}
		blob, _ := json.Marshal(vals)
		return fmt.Sprintf("%q: %s", path, blob)
	}
	spec, err := exp.ParseSpec([]byte(fmt.Sprintf(`{"scenario": "covert-pnm", "grid": {%s, %s}}`,
		grid("noise.seed", 64), grid("costs.flush_overhead", 64))))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x, err := spec.Expansion(exp.MaxRuns)
			if err != nil {
				b.Fatal(err)
			}
			if x.Total() != 4096 {
				b.Fatalf("expansion covers %d runs", x.Total())
			}
		}
		b.StopTimer()
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := spec.Expansion(exp.MaxRuns); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(allocs, "lazy-allocs")
		if allocs >= 4096 {
			b.Fatalf("constructing a 4096-run expansion allocates %.0f objects: construction is no longer O(axes)", allocs)
		}
	})
}

// BenchmarkMetricsObserve measures the serving layer's per-request metrics
// cost: one padded atomic counter add plus one histogram observation
// (binary search + atomic add). This rides on every instrumented request,
// so it must stay in the low-nanosecond, zero-allocation regime.
func BenchmarkMetricsObserve(b *testing.B) {
	set := metrics.NewSet("requests")
	lat := set.AddHistogram("latency_ns", metrics.LatencyBounds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Add(0, 1)
		set.Observe(lat, int64(i%1_000_000_000))
	}
}
