package core

import (
	"testing"

	"repro/internal/genomics"
	"repro/internal/sim"
)

func sideChannelFixture(t *testing.T, banks int, noise float64) (*sim.Machine, *genomics.Mapper) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.DRAM = cfg.DRAM.WithBanks(banks)
	cfg.Noise.EventsPerMCycle = noise
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := genomics.NewReference(1<<17, 7)
	idx, err := genomics.BuildIndex(ref, genomics.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads, err := genomics.SampleReads(ref, 20000, 150, 0.02, 8)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := genomics.NewMapper(m, m.Core(2), genomics.NewPlan(ref, idx, reads), genomics.DefaultBankLayout(banks), genomics.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return m, victim
}

func TestSideChannelQuietSystemIsAccurate(t *testing.T) {
	m, victim := sideChannelFixture(t, 256, 0)
	res, err := RunSideChannel(m, victim, SideChannelOptions{Sweeps: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Even with background noise disabled, the victim's own page-table
	// walks disturb row buffers (a modeled noise source), so a small
	// error floor remains.
	if res.ErrorRate > 0.08 {
		t.Fatalf("noiseless error rate = %.2f%%", res.ErrorRate*100)
	}
	if res.TruePositiveWindows == 0 {
		t.Fatal("victim produced no detectable activity")
	}
	if res.ThroughputMbps <= 0 {
		t.Fatal("non-positive leakage throughput")
	}
}

func TestSideChannelVictimKeepsWorking(t *testing.T) {
	m, victim := sideChannelFixture(t, 256, 0)
	res, err := RunSideChannel(m, victim, SideChannelOptions{Sweeps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimReadsMapped == 0 {
		t.Fatal("victim mapped no reads while being attacked")
	}
	if res.VictimAccuracy < 0.9 {
		t.Fatalf("victim accuracy under attack = %.2f", res.VictimAccuracy)
	}
}

func TestSideChannelNoiseRaisesError(t *testing.T) {
	mQuiet, vQuiet := sideChannelFixture(t, 256, 0)
	quiet, err := RunSideChannel(mQuiet, vQuiet, SideChannelOptions{Sweeps: 5})
	if err != nil {
		t.Fatal(err)
	}
	mNoisy, vNoisy := sideChannelFixture(t, 256, 400)
	noisy, err := RunSideChannel(mNoisy, vNoisy, SideChannelOptions{Sweeps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.ErrorRate <= quiet.ErrorRate {
		t.Fatalf("noise did not raise error: %.3f vs %.3f", noisy.ErrorRate, quiet.ErrorRate)
	}
}

func TestSideChannelProbeAccounting(t *testing.T) {
	m, victim := sideChannelFixture(t, 64, 0)
	res, err := RunSideChannel(m, victim, SideChannelOptions{Sweeps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 * 64); res.Probes != want {
		t.Fatalf("probes = %d, want %d", res.Probes, want)
	}
	if res.Correct+res.FalsePositives+res.FalseNegatives != res.Probes {
		t.Fatal("probe accounting does not add up")
	}
}

func TestSideChannelPrecisionRisesWithBanks(t *testing.T) {
	mSmall, vSmall := sideChannelFixture(t, 64, 0)
	small, err := RunSideChannel(mSmall, vSmall, SideChannelOptions{Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	mLarge, vLarge := sideChannelFixture(t, 256, 0)
	large, err := RunSideChannel(mLarge, vLarge, SideChannelOptions{Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if large.CandidateEntries >= small.CandidateEntries {
		t.Fatalf("candidates did not shrink with banks: %d -> %d",
			small.CandidateEntries, large.CandidateEntries)
	}
	if large.PrecisionBits <= small.PrecisionBits {
		t.Fatalf("precision did not rise with banks: %.1f -> %.1f bits",
			small.PrecisionBits, large.PrecisionBits)
	}
}
