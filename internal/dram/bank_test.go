package dram

import (
	"testing"
	"testing/quick"
)

func testTiming() Timing {
	t := DDR4_2400()
	return t
}

func TestBankFirstAccessIsEmpty(t *testing.T) {
	b := NewBank(testTiming())
	res := b.Access(0, 5)
	if res.Outcome != OutcomeEmpty {
		t.Fatalf("first access outcome = %v, want empty", res.Outcome)
	}
	if want := testTiming().EmptyLatency(); res.Latency != want {
		t.Fatalf("empty latency = %d, want %d", res.Latency, want)
	}
}

func TestBankHitAfterOpen(t *testing.T) {
	b := NewBank(testTiming())
	first := b.Access(0, 5)
	res := b.Access(first.CompletedAt+10, 5)
	if res.Outcome != OutcomeHit {
		t.Fatalf("outcome = %v, want hit", res.Outcome)
	}
	if want := testTiming().HitLatency(); res.Latency != want {
		t.Fatalf("hit latency = %d, want %d", res.Latency, want)
	}
}

func TestBankConflictLatency(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	first := b.Access(0, 5)
	// Access a different row well past tRAS so no stall applies.
	res := b.Access(first.CompletedAt+tm.TRAS+100, 6)
	if res.Outcome != OutcomeConflict {
		t.Fatalf("outcome = %v, want conflict", res.Outcome)
	}
	if want := tm.ConflictLatency(); res.Latency != want {
		t.Fatalf("conflict latency = %d, want %d", res.Latency, want)
	}
}

func TestBankConflictWaitsForTRAS(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	b.Access(0, 5) // activation at cycle 0
	// Conflict immediately after the access completes: the precharge must
	// wait until tRAS has elapsed since activation.
	res := b.Access(tm.EmptyLatency(), 6)
	minimum := tm.ConflictLatency()
	if res.Latency <= minimum {
		t.Fatalf("conflict latency %d does not include tRAS stall (>%d expected)", res.Latency, minimum)
	}
}

func TestBankBusyStall(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	first := b.Access(0, 5)
	// Issue while the bank is still busy: the access must stall.
	res := b.Access(first.CompletedAt-10, 5)
	if res.Latency != tm.HitLatency()+10 {
		t.Fatalf("stalled hit latency = %d, want %d", res.Latency, tm.HitLatency()+10)
	}
}

func TestBankRowTimeoutClosesRow(t *testing.T) {
	tm := testTiming()
	tm.RowTimeout = 100
	b := NewBank(tm)
	first := b.Access(0, 5)
	res := b.Access(first.CompletedAt+101, 5)
	if res.Outcome != OutcomeEmpty {
		t.Fatalf("outcome after timeout = %v, want empty", res.Outcome)
	}
}

func TestBankNoTimeoutWhenDisabled(t *testing.T) {
	tm := testTiming()
	tm.RowTimeout = 0
	b := NewBank(tm)
	first := b.Access(0, 5)
	res := b.Access(first.CompletedAt+1_000_000, 5)
	if res.Outcome != OutcomeHit {
		t.Fatalf("outcome with disabled timeout = %v, want hit", res.Outcome)
	}
}

func TestBankPrechargeIdempotent(t *testing.T) {
	b := NewBank(testTiming())
	first := b.Access(0, 5)
	pre := b.Precharge(first.CompletedAt + 200)
	if b.OpenRow() != -1 {
		t.Fatalf("open row after precharge = %d, want -1", b.OpenRow())
	}
	again := b.Precharge(pre.CompletedAt + 10)
	if again.Latency != 0 {
		t.Fatalf("second precharge latency = %d, want 0", again.Latency)
	}
}

func TestBankActivateOpensWithoutData(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	res := b.Activate(0, 7)
	if res.Outcome != OutcomeEmpty || res.Latency != tm.TRCD {
		t.Fatalf("activate = %+v, want empty with tRCD", res)
	}
	if b.OpenRow() != 7 {
		t.Fatalf("open row = %d, want 7", b.OpenRow())
	}
}

func TestBankRowCloneCopiesData(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	first := b.Access(0, 3) // latch source
	res := b.RowClone(first.CompletedAt+200, 3, 4)
	if res.Outcome != OutcomeHit || res.Latency != tm.RowCloneFPM {
		t.Fatalf("rowclone with latched source = %+v, want a hit costing %d", res, tm.RowCloneFPM)
	}
	if b.OpenRow() != 4 {
		t.Fatalf("open row after rowclone = %d, want destination 4", b.OpenRow())
	}
	// The copy leaves the destination in the row buffer: reading it back
	// hits, and returning to the source conflicts.
	if got := b.Access(res.CompletedAt+200, 4); got.Outcome != OutcomeHit {
		t.Fatalf("access to destination = %v, want hit", got.Outcome)
	}
	if got := b.Access(res.CompletedAt+tm.TRAS+400, 3); got.Outcome != OutcomeConflict {
		t.Fatalf("access to source = %v, want conflict", got.Outcome)
	}
}

func TestBankRowCloneConflictTiming(t *testing.T) {
	tm := testTiming()
	b := NewBank(tm)
	first := b.Access(0, 9) // open an unrelated row
	res := b.RowClone(first.CompletedAt+tm.TRAS+100, 3, 4)
	if res.Outcome != OutcomeConflict {
		t.Fatalf("outcome = %v, want conflict", res.Outcome)
	}
	want := tm.TRP + tm.TRCD + tm.RowCloneFPM
	if res.Latency != want {
		t.Fatalf("conflict rowclone latency = %d, want %d", res.Latency, want)
	}
}

func TestBankReadWriteBounds(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	commands := map[string]func(bank int) error{
		"access": func(bank int) error {
			_, err := dev.Access(0, bank, 1)
			return err
		},
		"activate": func(bank int) error {
			_, err := dev.Activate(0, bank, 1)
			return err
		},
		"rowclone": func(bank int) error {
			_, err := dev.RowClone(0, bank, 1, 2)
			return err
		},
	}
	for name, run := range commands {
		for _, bank := range []int{-1, dev.NumBanks()} {
			if err := run(bank); err == nil {
				t.Errorf("%s accepted bank %d of %d", name, bank, dev.NumBanks())
			}
		}
	}
	for _, name := range dev.Counters().Names() {
		if got := dev.Counters().Get(name); got != 0 {
			t.Errorf("counter %s = %d after rejected commands, want 0", name, got)
		}
	}
}

func TestBankLatencyMonotonicity(t *testing.T) {
	// Property: for any access sequence, CompletedAt never decreases.
	check := func(rows []uint8, gaps []uint8) bool {
		b := NewBank(testTiming())
		now := int64(0)
		var lastDone int64
		for i, r := range rows {
			if i < len(gaps) {
				now += int64(gaps[i])
			}
			res := b.Access(now, int64(r%8))
			if res.CompletedAt < lastDone {
				return false
			}
			lastDone = res.CompletedAt
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBankOutcomeLatencyOrdering(t *testing.T) {
	// Property: hit <= empty <= conflict for quiescent accesses.
	tm := testTiming()
	if !(tm.HitLatency() <= tm.EmptyLatency() && tm.EmptyLatency() <= tm.ConflictLatency()) {
		t.Fatalf("latency ordering violated: hit=%d empty=%d conflict=%d",
			tm.HitLatency(), tm.EmptyLatency(), tm.ConflictLatency())
	}
	if tm.WorstCaseLatency() < tm.ConflictLatency() {
		t.Fatalf("worst case %d < conflict %d", tm.WorstCaseLatency(), tm.ConflictLatency())
	}
}
