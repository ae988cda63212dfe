package sim

import (
	"strings"
	"testing"
)

// TestPoolShapeSharding pins the pool's routing: configs that differ only
// in Reset-applicable parameters, row size included, share a shard
// (reuse), configs with a different allocation shape get their own shard
// (no thrash between alternating shapes), and a shape-matching config
// that Reset still refuses is dropped rather than handed out.
func TestPoolShapeSharding(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; exact hit/miss pins cannot hold")
	}
	pool := NewPool()

	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.Costs.FlushOverhead += 100 // same shape as A
	cfgC := DefaultConfig()
	cfgC.LLCBytes = 4 << 20 // different LLC geometry: own shard
	cfgD := DefaultConfig()
	cfgD.DRAM.RowBytes = 4096 // banks hold no rows: same shape as A

	mA, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(mA)
	if st := pool.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first Get: stats %+v, want 0 hits / 1 miss", st)
	}

	// Same shape, different behavior parameters: must reuse mA.
	mB, err := pool.Get(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if mB != mA {
		t.Fatal("same-shape Get did not reuse the pooled machine")
	}
	if got, want := mB.Config().Costs.FlushOverhead, cfgB.Costs.FlushOverhead; got != want {
		t.Fatalf("reused machine kept stale config: flush overhead %d, want %d", got, want)
	}
	pool.Put(mB)

	// A different row size changes only the address mapping: must reuse
	// the same machine too.
	mD, err := pool.Get(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	if mD != mA {
		t.Fatal("a different row size missed the pooled machine")
	}
	if got := mD.Mapper().Map(uint64(cfgD.DRAM.RowBytes) * uint64(cfgD.DRAM.TotalBanks())).Row; got != 1 {
		t.Fatalf("reused machine kept the stale address mapping: row %d, want 1", got)
	}

	// Different LLC geometry while mD is checked out: fresh build in a
	// separate shard, and returning both machines keeps both shapes pooled.
	mC, err := pool.Get(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if mC == mD {
		t.Fatal("different-shape Get reused a machine whose LLC arrays cannot fit")
	}
	pool.Put(mD)
	pool.Put(mC)

	// Alternate shapes: each Get must hit its own shard, never dropping.
	for i := 0; i < 4; i++ {
		cfg := cfgA
		if i%2 == 1 {
			cfg = cfgC
		}
		m, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(m)
	}
	st := pool.Stats()
	if st.Drops != 0 {
		t.Fatalf("stats %+v: alternating shapes dropped machines instead of sharding", st)
	}
	if st.Hits < 6 { // mB and mD reuses + 4 alternating reuses (sync.Pool may GC-drop, but not in this window)
		t.Fatalf("stats %+v: expected at least 6 reset reuses", st)
	}
	if st.Misses != 2 {
		t.Fatalf("stats %+v: expected exactly one fresh build per shape", st)
	}
}

// TestPoolDropOnResetRefusal exercises the defensive drop path: a config
// whose shape key matches a pooled machine but which Machine.Reset still
// refuses (RowsPerBank is not part of the allocation shape, yet zero fails
// DRAM validation). The pooled machine must be discarded — not re-pooled —
// and Get must surface New's error.
func TestPoolDropOnResetRefusal(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; exact drop/miss pins cannot hold")
	}
	pool := NewPool()
	m, err := pool.Get(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m)

	bad := DefaultConfig()
	bad.DRAM.RowsPerBank = 0 // same bank count, fails Validate
	if _, err := pool.Get(bad); err == nil || !strings.Contains(err.Error(), "rows per bank") {
		t.Fatalf("Get(invalid config) error = %v, want rows-per-bank validation failure", err)
	}
	st := pool.Stats()
	if st.Drops != 1 {
		t.Fatalf("stats %+v: Reset refusal must count as a drop", st)
	}

	// The dropped machine is gone for good; the next valid Get of that
	// shape rebuilds fresh.
	m2, err := pool.Get(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m {
		t.Fatal("dropped machine was handed out again")
	}
	if st := pool.Stats(); st.Misses != 2 {
		t.Fatalf("stats %+v: expected a fresh build after the drop", st)
	}
}
