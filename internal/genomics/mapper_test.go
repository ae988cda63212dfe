package genomics

import (
	"testing"

	"repro/internal/sim"
)

func mapperFixture(t *testing.T, banks, numReads int, mutationRate float64) (*sim.Machine, *Mapper) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.DRAM = cfg.DRAM.WithBanks(banks)
	cfg.Noise.EventsPerMCycle = 0
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewReference(1<<17, 7)
	idx, err := BuildIndex(ref, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads, err := SampleReads(ref, numReads, 150, mutationRate, 8)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewMapper(m, m.Core(2), NewPlan(ref, idx, reads), DefaultBankLayout(banks), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return m, mapper
}

func TestMapperRecoversTruePositions(t *testing.T) {
	_, mapper := mapperFixture(t, 16, 60, 0.02)
	if err := mapper.Run(); err != nil {
		t.Fatal(err)
	}
	if !mapper.Done() {
		t.Fatal("mapper not done after Run")
	}
	if got := mapper.Accuracy(64); got < 0.95 {
		t.Fatalf("mapping accuracy = %.2f, want >= 0.95", got)
	}
	if len(mapper.Results()) != 60 {
		t.Fatalf("results = %d, want 60", len(mapper.Results()))
	}
}

func TestMapperAdvancesSimulatedTime(t *testing.T) {
	_, mapper := mapperFixture(t, 16, 5, 0)
	start := mapper.Now()
	if err := mapper.Run(); err != nil {
		t.Fatal(err)
	}
	if mapper.Now() <= start {
		t.Fatal("victim clock did not advance")
	}
}

func TestMapperTouchesReportedBanks(t *testing.T) {
	m, mapper := mapperFixture(t, 16, 10, 0.02)
	layout := mapper.Layout()
	touches := 0
	mapper.SetTouchFunc(func(bank int, row int64, at int64) {
		touches++
		if bank < 0 || bank >= layout.Banks {
			t.Fatalf("touch outside layout: bank %d", bank)
		}
		if row < layout.BaseRow {
			t.Fatalf("touch below table region: row %d", row)
		}
		// The touched bank's open row must actually be a table row: the
		// physical evidence the attacker reads.
		if open := m.Device().Bank(bank).OpenRow(); open != row {
			t.Fatalf("reported row %d but bank %d holds %d", row, bank, open)
		}
	})
	if err := mapper.Run(); err != nil {
		t.Fatal(err)
	}
	if touches == 0 {
		t.Fatal("no touches reported")
	}
}

func TestMapperRejectsEmptyReads(t *testing.T) {
	cfg := sim.DefaultConfig()
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewReference(1000, 1)
	idx, err := BuildIndex(ref, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMapper(m, m.Core(0), NewPlan(ref, idx, nil), DefaultBankLayout(16), DefaultCosts()); err == nil {
		t.Fatal("empty read set accepted")
	}
}

func TestMapperRejectsOversizedLayout(t *testing.T) {
	cfg := sim.DefaultConfig() // 16 banks
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewReference(1000, 1)
	idx, err := BuildIndex(ref, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads, err := SampleReads(ref, 1, 150, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMapper(m, m.Core(0), NewPlan(ref, idx, reads), DefaultBankLayout(1024), DefaultCosts()); err == nil {
		t.Fatal("layout larger than the device accepted")
	}
}

func TestMapperMutationToleranceDegradesGracefully(t *testing.T) {
	// Even at 10% mutation rate, most reads should still map: seeding +
	// chaining tolerate point mutations.
	_, mapper := mapperFixture(t, 16, 40, 0.10)
	if err := mapper.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mapper.Accuracy(64); got < 0.5 {
		t.Fatalf("accuracy at 10%% mutations = %.2f, want >= 0.5", got)
	}
}
