package core

import (
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
)

func quietMachine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Noise.EventsPerMCycle = 0
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// channelRunners enumerates every covert channel for table-driven tests.
func channelRunners() map[string]func(*sim.Machine, []bool, Options) (Result, error) {
	return map[string]func(*sim.Machine, []bool, Options) (Result, error){
		"pnm":      RunPnM,
		"pum":      RunPuM,
		"clflush":  RunDRAMAClflush,
		"eviction": RunDRAMAEviction,
		"dma":      RunDMA,
		"direct":   RunDirect,
	}
}

func TestAllChannelsDecodeNoiselessly(t *testing.T) {
	msg := RandomMessage(256, 21)
	for name, run := range channelRunners() {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			res, err := run(quietMachine(t), msg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.ErrorRate > 0.02 {
				t.Fatalf("error rate %.2f%% on a noiseless machine", res.ErrorRate*100)
			}
			if res.ThroughputMbps <= 0 {
				t.Fatal("non-positive throughput")
			}
			if res.Cycles <= 0 {
				t.Fatal("non-positive duration")
			}
		})
	}
}

func TestChannelThroughputOrdering(t *testing.T) {
	// The paper's headline ordering: PuM > PnM > clflush > DMA, and
	// eviction slowest among DRAMA variants.
	msg := RandomMessage(1024, 33)
	results := make(map[string]Result, 6)
	for name, run := range channelRunners() {
		res, err := run(quietMachine(t), msg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = res
	}
	order := []struct{ fast, slow string }{
		{"pum", "pnm"},
		{"pnm", "clflush"},
		{"clflush", "dma"},
		{"clflush", "eviction"},
		{"dma", "eviction"},
	}
	for _, o := range order {
		if results[o.fast].ThroughputMbps <= results[o.slow].ThroughputMbps {
			t.Errorf("%s (%.2f) not faster than %s (%.2f)",
				o.fast, results[o.fast].ThroughputMbps, o.slow, results[o.slow].ThroughputMbps)
		}
	}
}

func TestPnMHeadlineThroughput(t *testing.T) {
	msg := RandomMessage(4096, 42)
	res, err := RunPnM(quietMachine(t), msg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Calibrated to the paper's 8.2 Mb/s; allow 15% drift.
	if res.ThroughputMbps < 7.0 || res.ThroughputMbps > 9.4 {
		t.Fatalf("PnM throughput %.2f Mb/s out of calibrated band (paper: 8.2)", res.ThroughputMbps)
	}
}

func TestPuMFasterThanPnMByBankParallelism(t *testing.T) {
	msg := RandomMessage(2048, 13)
	pnm, err := RunPnM(quietMachine(t), msg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pum, err := RunPuM(quietMachine(t), msg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := pum.ThroughputMbps / pnm.ThroughputMbps
	if ratio < 1.3 || ratio > 2.5 {
		t.Fatalf("PuM/PnM = %.2f, want ~1.8 (paper)", ratio)
	}
	senderRatio := float64(pnm.SenderCycles) / float64(pum.SenderCycles)
	if senderRatio < 4 {
		t.Fatalf("PnM/PuM sender ratio = %.1f, want >> 1 (paper: 11.1)", senderRatio)
	}
}

func TestChannelRoundTripsText(t *testing.T) {
	secret := "attack at dawn"
	bits := BitsFromBytes([]byte(secret))
	res, err := RunPnM(quietMachine(t), bits, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(BytesFromBits(res.Decoded)); got != secret {
		t.Fatalf("decoded %q, want %q", got, secret)
	}
}

func TestPnMRecordsLatencies(t *testing.T) {
	msg := RandomMessage(64, 3)
	res, err := RunPnM(quietMachine(t), msg, Options{RecordLatencies: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != len(msg) {
		t.Fatalf("recorded %d latencies for %d bits", len(res.Latencies), len(msg))
	}
	// Every 1-bit latency must exceed every 0-bit latency on a quiet
	// machine — the Figure 8 separation.
	var max0, min1 int64 = 0, 1 << 62
	for i, lat := range res.Latencies {
		if msg[i] && lat < min1 {
			min1 = lat
		}
		if !msg[i] && lat > max0 {
			max0 = lat
		}
	}
	if max0 >= min1 {
		t.Fatalf("latency bands overlap: max0=%d min1=%d", max0, min1)
	}
	if max0 >= DefaultThresholdCycles || min1 <= DefaultThresholdCycles {
		t.Fatalf("threshold 150 does not separate bands (%d / %d)", max0, min1)
	}
}

func TestChannelsHonorCustomBanks(t *testing.T) {
	msg := RandomMessage(40, 5)
	res, err := RunPnM(quietMachine(t), msg, Options{Banks: []int{2, 5, 9, 14}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate != 0 {
		t.Fatalf("custom-bank run error rate %.2f%%", res.ErrorRate*100)
	}
}

func TestNonBatchAlignedMessage(t *testing.T) {
	msg := RandomMessage(37, 6) // not a multiple of 16
	res, err := RunPuM(quietMachine(t), msg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits != 37 || len(res.Decoded) != 37 {
		t.Fatalf("bits = %d decoded = %d, want 37", res.Bits, len(res.Decoded))
	}
	if res.ErrorRate != 0 {
		t.Fatalf("error rate %.2f%%", res.ErrorRate*100)
	}
}

func TestConstantTimeDefenseBreaksChannel(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Noise.EventsPerMCycle = 0
	cfg.Mem.Defense = memctrl.DefenseConstantTime
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPnM(m, RandomMessage(512, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveThroughputMbps > 0.2 {
		t.Fatalf("CTD left %.2f Mb/s of effective capacity", res.EffectiveThroughputMbps)
	}
}

func TestClosedRowDefenseBreaksChannel(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Noise.EventsPerMCycle = 0
	cfg.Mem.Defense = memctrl.DefenseClosedRow
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPnM(m, RandomMessage(512, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveThroughputMbps > 0.2 {
		t.Fatalf("CRP left %.2f Mb/s of effective capacity", res.EffectiveThroughputMbps)
	}
}

func TestNoiseCausesSomeErrorsButChannelSurvives(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Noise.EventsPerMCycle = 200
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPnM(m, RandomMessage(4096, 9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate == 0 {
		t.Fatal("heavy noise produced zero errors — noise not reaching the channel")
	}
	if res.ErrorRate > 0.2 {
		t.Fatalf("noise error rate %.1f%% too destructive", res.ErrorRate*100)
	}
}

func TestMessageHelpersRoundTrip(t *testing.T) {
	data := []byte("IMPACT reproduction")
	bits := BitsFromBytes(data)
	if len(bits) != len(data)*8 {
		t.Fatalf("bits = %d, want %d", len(bits), len(data)*8)
	}
	back := BytesFromBits(bits)
	if string(back) != string(data) {
		t.Fatalf("round trip = %q", back)
	}
	// Trailing partial bytes are dropped.
	if got := BytesFromBits(bits[:12]); len(got) != 1 {
		t.Fatalf("partial pack = %d bytes, want 1", len(got))
	}
}

func TestRandomMessageDeterministic(t *testing.T) {
	a := RandomMessage(128, 5)
	b := RandomMessage(128, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("messages diverge at bit %d", i)
		}
	}
}

func TestBSCCapacity(t *testing.T) {
	if got := bscCapacity(0); got != 1 {
		t.Errorf("capacity(0) = %v", got)
	}
	if got := bscCapacity(0.5); got != 0 {
		t.Errorf("capacity(0.5) = %v", got)
	}
	if got := bscCapacity(0.89); got != 0 {
		t.Errorf("capacity(>0.5) = %v, want 0", got)
	}
	mid := bscCapacity(0.1)
	if mid <= 0.5 || mid >= 0.6 {
		t.Errorf("capacity(0.1) = %v, want ~0.53", mid)
	}
}

func TestTable1Properties(t *testing.T) {
	rows := Table1(quietMachine(t))
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
	var pim, dma *PrimitiveProperties
	for i := range rows {
		switch rows[i].Primitive {
		case PrimitivePiM:
			pim = &rows[i]
		case PrimitiveDMA:
			dma = &rows[i]
		}
	}
	if pim == nil || dma == nil {
		t.Fatal("missing PiM or DMA row")
	}
	// PiM is the only primitive satisfying all four properties.
	if !(pim.NoCacheLookup && pim.NoExcessiveMemAccesses && pim.TimingDetectable && pim.ISAGuaranteed) {
		t.Error("PiM row does not satisfy all properties")
	}
	for _, r := range rows {
		if r.Primitive == PrimitivePiM {
			continue
		}
		if r.NoCacheLookup && r.NoExcessiveMemAccesses && r.TimingDetectable && r.ISAGuaranteed {
			t.Errorf("%s satisfies all properties; only PiM should", r.Primitive)
		}
		if r.MeasuredLatency <= pim.MeasuredLatency {
			t.Errorf("%s per-request latency %d not above PiM's %d",
				r.Primitive, r.MeasuredLatency, pim.MeasuredLatency)
		}
	}
}

// TestTable1FlushRowsUseMachineFlush requires the clflush-based rows to
// charge what the machine's own Flush of a clean line costs, plus one
// memory access, also when the LLC latency is configured rather than
// derived from CACTI.
func TestTable1FlushRowsUseMachineFlush(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Noise.EventsPerMCycle = 0
	cfg.LLCLatency = 90
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flush := m.Core(0).Flush(0x1000)
	want := flush + cfg.DRAM.Timing.EmptyLatency() + cfg.Mem.RequestOverhead
	for _, r := range Table1(m) {
		if r.Primitive != PrimitiveSpecialized && r.Primitive != PrimitiveNonTemporal {
			continue
		}
		if r.MeasuredLatency != want {
			t.Errorf("%s latency = %d, want flush %d + memory access = %d", r.Primitive, r.MeasuredLatency, flush, want)
		}
	}
}

// TestChannelAllocationsFlatInMessageLength requires every covert channel
// to allocate the same number of objects for a 512-bit and a 2048-bit
// message: Machine.Reset plus one run on one held machine. A count that
// grows with the message means per-bit or per-batch garbage on the
// simulation path.
func TestChannelAllocationsFlatInMessageLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := sim.DefaultConfig()
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	short, long := RandomMessage(512, 5), RandomMessage(2048, 5)
	for _, ch := range Channels() {
		allocs := func(msg []bool) float64 {
			return testing.AllocsPerRun(2, func() {
				if !m.Reset(cfg) {
					t.Fatal("Reset refused the machine's own configuration")
				}
				if _, err := ch.Run(m, msg, Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(short), allocs(long)
		t.Logf("%s: %.0f allocations at 512 bits, %.0f at 2048", ch.Name, a, b)
		if a != b {
			t.Errorf("%s: %.0f allocations at 512 bits but %.0f at 2048: allocations grow with message length", ch.Name, a, b)
		}
	}
}
