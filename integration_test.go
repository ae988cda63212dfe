// Cross-module integration tests: end-to-end invariants of the paper's
// evaluation that span the simulator, the PiM engines, the attacks, the
// victim application and the defenses.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/genomics"
	"repro/internal/memctrl"
	"repro/internal/sim"
)

func quietTestMachine(t *testing.T, mutate func(*sim.Config)) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Noise.EventsPerMCycle = 0
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEndToEndDeterminism: identical machines and messages must yield
// bit-identical results — the property that makes every experiment in this
// repository reproducible.
func TestEndToEndDeterminism(t *testing.T) {
	msg := core.RandomMessage(1024, 55)
	runs := make([]core.Result, 2)
	for i := range runs {
		cfg := sim.DefaultConfig() // default noise ON: determinism must hold under noise too
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunPnM(m, msg, core.Options{RecordLatencies: true})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	if runs[0].Cycles != runs[1].Cycles || runs[0].Correct != runs[1].Correct {
		t.Fatalf("nondeterministic runs: %+v vs %+v", runs[0], runs[1])
	}
	for i := range runs[0].Latencies {
		if runs[0].Latencies[i] != runs[1].Latencies[i] {
			t.Fatalf("latency %d differs: %d vs %d", i, runs[0].Latencies[i], runs[1].Latencies[i])
		}
	}
}

// TestMassagedChannel: the full attack chain — discover co-located pairs by
// timing, then run a covert channel over the discovered banks.
func TestMassagedChannel(t *testing.T) {
	m := quietTestMachine(t, nil)
	massage, err := core.MassageMemory(m, m.Core(0), 8)
	if err != nil {
		t.Fatal(err)
	}
	banks := make([]int, 0, len(massage.Pairs))
	for _, pair := range massage.Pairs {
		banks = append(banks, m.Mapper().Map(pair[0]).Bank)
	}
	res, err := core.RunPnM(m, core.RandomMessage(256, 56), core.Options{Banks: banks})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate > 0.02 {
		t.Fatalf("channel over timing-discovered banks errored %.2f%%", res.ErrorRate*100)
	}
}

// TestVictimUnaffectedResultsUnderAttack: the read mapper must compute the
// same mappings whether or not it is being spied on (the attack is passive).
func TestVictimUnaffectedResultsUnderAttack(t *testing.T) {
	build := func() (*sim.Machine, *genomics.Mapper) {
		cfg := sim.DefaultConfig()
		cfg.DRAM = cfg.DRAM.WithBanks(64)
		cfg.Noise.EventsPerMCycle = 0
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := genomics.NewReference(1<<17, 7)
		idx, err := genomics.BuildIndex(ref, genomics.DefaultIndexConfig())
		if err != nil {
			t.Fatal(err)
		}
		reads, err := genomics.SampleReads(ref, 200, 150, 0.02, 8)
		if err != nil {
			t.Fatal(err)
		}
		v, err := genomics.NewMapper(m, m.Core(2), genomics.NewPlan(ref, idx, reads), genomics.DefaultBankLayout(64), genomics.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		return m, v
	}

	_, alone := build()
	if err := alone.Run(); err != nil {
		t.Fatal(err)
	}

	m, spied := build()
	if _, err := core.RunSideChannel(m, spied, core.SideChannelOptions{Sweeps: 4}); err != nil {
		t.Fatal(err)
	}
	// Drain any remaining reads so both runs cover the same input.
	if err := spied.Run(); err != nil {
		t.Fatal(err)
	}

	a, b := alone.Results(), spied.Results()
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].MappedPos != b[i].MappedPos {
			t.Fatalf("read %d mapped to %d alone but %d under attack", i, a[i].MappedPos, b[i].MappedPos)
		}
	}
}

// TestDefenseHierarchy: end-to-end, the effective covert throughput under
// each defense must order none > ACT-Conservative >= ACT-Mild > CTD.
func TestDefenseHierarchy(t *testing.T) {
	msg := core.RandomMessage(1024, 57)
	run := func(d memctrl.Defense, act memctrl.ACTConfig) float64 {
		m := quietTestMachine(t, func(cfg *sim.Config) {
			cfg.Mem.Defense = d
			cfg.Mem.ACT = act
		})
		res, err := core.RunPnM(m, msg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.EffectiveThroughputMbps
	}
	none := run(memctrl.DefenseNone, memctrl.ACTConfig{})
	cons := run(memctrl.DefenseAdaptive, memctrl.ACTConservative())
	mild := run(memctrl.DefenseAdaptive, memctrl.ACTMild())
	ctd := run(memctrl.DefenseConstantTime, memctrl.ACTConfig{})
	if !(none >= cons && cons >= mild && mild > ctd) {
		t.Fatalf("defense hierarchy violated: none=%.2f cons=%.2f mild=%.2f ctd=%.2f",
			none, cons, mild, ctd)
	}
	if ctd > 0.2 {
		t.Fatalf("CTD left %.2f Mb/s effective", ctd)
	}
}

// TestPipelinedAndSerialAgreeOnPayload: both protocol variants must deliver
// the same message.
func TestPipelinedAndSerialAgreeOnPayload(t *testing.T) {
	payload := core.BitsFromBytes([]byte("pipelined and serial must agree"))
	serial, err := core.RunPnM(quietTestMachine(t, nil), payload, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := core.RunPnMPipelined(quietTestMachine(t, nil), payload, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(core.BytesFromBits(serial.Decoded)) != string(core.BytesFromBits(pipelined.Decoded)) {
		t.Fatal("protocol variants decoded different payloads")
	}
}
