package stats

import (
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := NewFixed("a", "b", "c")
	if got := c.Get("missing"); got != 0 {
		t.Fatalf("Get(missing) = %d, want 0", got)
	}
	c.Add(0, 2)
	c.Add(0, 3)
	c.Add(1, 1)
	if got := c.Get("a"); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
	if got := c.String(); got != "a=5 b=1" {
		t.Errorf("String = %q", got)
	}
}

func TestCountersSnapshotIsCopy(t *testing.T) {
	c := NewFixed("x")
	c.Add(0, 1)
	snap := c.Snapshot()
	snap["x"] = 99
	if got := c.Get("x"); got != 1 {
		t.Fatalf("snapshot mutation leaked into counters: x = %d", got)
	}
}

func TestCountersReset(t *testing.T) {
	c := NewFixed("x")
	c.Add(0, 7)
	c.Reset()
	if got := c.Get("x"); got != 0 {
		t.Fatalf("after Reset x = %d, want 0", got)
	}
	if len(c.Names()) != 0 {
		t.Fatalf("after Reset names = %v, want empty", c.Names())
	}
}

func TestFixedReset(t *testing.T) {
	c := NewFixed("a", "b")
	c.Add(0, 7)
	c.Add(1, 2)
	c.Reset()
	if c.Value(0) != 0 || c.Value(1) != 0 || c.Get("a") != 0 || c.Get("b") != 0 {
		t.Fatalf("Reset left values: %s", c)
	}
	if len(c.Names()) != 0 {
		t.Fatalf("after Reset names = %v, want empty", c.Names())
	}
	// The slots stay registered: counting resumes from zero after Reset.
	c.Add(1, 3)
	if got := c.Get("b"); got != 3 {
		t.Fatalf("after Reset and Add b = %d, want 3", got)
	}
}

func TestFixedSlotsAndStringAPIAgree(t *testing.T) {
	const (
		idHit CounterID = iota
		idMiss
	)
	c := NewFixed("hit", "miss")
	c.Add(idHit, 5)
	c.Add(idMiss, 1)
	if got := c.Value(idHit); got != 5 {
		t.Errorf("Value(hit) = %d, want 5", got)
	}
	if got := c.Get("hit"); got != 5 {
		t.Errorf("Get(hit) = %d, want 5", got)
	}
	snap := c.Snapshot()
	want := map[string]int64{"hit": 5, "miss": 1}
	if len(snap) != len(want) {
		t.Fatalf("Snapshot = %v, want %v", snap, want)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("Snapshot[%s] = %d, want %d", k, snap[k], v)
		}
	}
	if got := c.String(); got != "hit=5 miss=1" {
		t.Errorf("String = %q", got)
	}
}

func TestFixedZeroSlotsOmitted(t *testing.T) {
	c := NewFixed("hit", "miss")
	c.Add(0, 1)
	// A never-incremented fixed slot must not surface through the export
	// API, matching the historical map behavior.
	if names := c.Names(); len(names) != 1 || names[0] != "hit" {
		t.Fatalf("Names = %v, want [hit]", names)
	}
	if _, ok := c.Snapshot()["miss"]; ok {
		t.Fatal("zero-valued fixed slot leaked into Snapshot")
	}
}

func TestFixedAddNoAllocs(t *testing.T) {
	c := NewFixed("hit")
	if avg := testing.AllocsPerRun(1000, func() { c.Add(0, 1) }); avg != 0 {
		t.Fatalf("Add allocates %v allocs/op, want 0", avg)
	}
}

func TestErrorRate(t *testing.T) {
	var e ErrorRate
	if e.Rate() != 0 {
		t.Fatalf("empty Rate = %v, want 0", e.Rate())
	}
	for i := 0; i < 9; i++ {
		e.Record(true)
	}
	e.Record(false)
	if got := e.Rate(); got != 0.1 {
		t.Errorf("Rate = %v, want 0.1", got)
	}
	if e.Correct() != 9 || e.Wrong() != 1 || e.Total() != 10 {
		t.Errorf("counts = %d/%d/%d, want 9/1/10", e.Correct(), e.Wrong(), e.Total())
	}
}
