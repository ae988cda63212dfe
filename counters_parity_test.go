package repro_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/pim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// TestCounterParityAcrossCovertRun drives full PnM and PuM covert-channel
// transmissions and checks, for every subsystem, that the typed fixed-slot
// counter view (Value by CounterID) and the string-keyed export layer
// (Get/Snapshot) agree exactly — i.e. the integer-indexed redesign
// exports the same statistics the old string-map implementation did.
func TestCounterParityAcrossCovertRun(t *testing.T) {
	msg := core.RandomMessage(256, 21)
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunPnM(m, msg, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunPuM(m, msg, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// The covert channels bypass the caches (uncached loads and PEIs), so
	// drive some ordinary cached loads as well to exercise the L1/LLC path.
	for i := 0; i < 64; i++ {
		m.Core(0).Load(m.AddrFor(i%4, int64(i), 0), 0)
		m.Core(0).Load(m.AddrFor(i%4, int64(i), 0), 0)
	}

	check := func(sub string, c *stats.Counters, ids map[string]stats.CounterID) {
		t.Helper()
		snap := c.Snapshot()
		var total int64
		for name, id := range ids {
			typed := c.Value(id)
			total += typed
			if got := c.Get(name); got != typed {
				t.Errorf("%s: Get(%q) = %d, Value(%d) = %d", sub, name, got, id, typed)
			}
			if snap[name] != typed {
				t.Errorf("%s: Snapshot[%q] = %d, Value(%d) = %d", sub, name, snap[name], id, typed)
			}
			if typed == 0 {
				if _, ok := snap[name]; ok {
					t.Errorf("%s: zero counter %q present in snapshot", sub, name)
				}
			}
		}
		for name := range snap {
			if _, ok := ids[name]; !ok {
				t.Errorf("%s: unexpected counter %q in snapshot", sub, name)
			}
		}
		if total == 0 {
			t.Errorf("%s: covert run left all counters at zero", sub)
		}
	}

	check("dram", m.Device().Counters(), map[string]stats.CounterID{
		"hit":      dram.CounterHit,
		"empty":    dram.CounterEmpty,
		"conflict": dram.CounterConflict,
		"rowclone": dram.CounterRowClone,
	})
	check("memctrl", m.Controller().Counters(), map[string]stats.CounterID{
		"requests":            memctrl.CounterRequests,
		"act_padded":          memctrl.CounterACTPadded,
		"partition_violation": memctrl.CounterPartitionViolation,
	})
	check("llc", m.LLC().Counters(), map[string]stats.CounterID{
		"hit":       cache.CounterHit,
		"miss":      cache.CounterMiss,
		"writeback": cache.CounterWriteback,
	})
	check("l1", m.Core(0).Hierarchy().L1().Counters(), map[string]stats.CounterID{
		"hit":       cache.CounterHit,
		"miss":      cache.CounterMiss,
		"writeback": cache.CounterWriteback,
	})
	check("mmu", m.Core(0).MMU().Counters(), map[string]stats.CounterID{
		"l1_hit": tlb.CounterL1Hit,
		"l2_hit": tlb.CounterL2Hit,
		"walk":   tlb.CounterWalk,
	})
	check("pei", m.PEI().Counters(), map[string]stats.CounterID{
		"host_side":   pim.CounterHostSide,
		"memory_side": pim.CounterMemorySide,
	})
	check("rowclone-engine", m.RowClone().Counters(), map[string]stats.CounterID{
		"ops":      pim.CounterOps,
		"requests": pim.CounterRequests,
	})
}
