package sim

import (
	"testing"

	"repro/internal/memctrl"
	"repro/internal/stats"
)

func TestTraceChargesOnlyDemandedFills(t *testing.T) {
	// Load demands x, so its fill and the fill of each page-walk level
	// are charged. Stores then evict x's line from the LLC and store to x
	// again: that fill has the address Load marked, but the clock does not
	// wait for it, and the evicting requests in between cleared the mark.
	m := newTestMachine(t)
	var trace Trace
	m.Record(&trace)
	c := m.Core(0)
	h := c.Hierarchy()
	const x = 0x10_0000_0000
	c.Load(x, 1)
	for _, a := range h.EvictionSet(x, 2*m.Config().LLCWays) {
		h.Store(c.Now(), a, 2)
	}
	if h.LLC().Contains(x) {
		t.Fatal("the eviction set left x in the LLC")
	}
	h.Store(c.Now(), x, 2)

	var charged int
	var fills []Request
	for _, r := range trace.Requests() {
		if r.Charged {
			charged++
		}
		if r.Addr == x {
			fills = append(fills, r)
		}
	}
	if charged != 5 || len(fills) != 2 || !fills[0].Charged || fills[1].Charged {
		t.Fatalf("charged %d requests and filled x as %+v; want 5 (four walk levels and x's load fill), and only the load fill of x charged", charged, fills)
	}
}

func TestReplayMatchesDirectRun(t *testing.T) {
	// Random mixes of stores and loads over lines that share an L2 set but
	// spread over four LLC sets and every bank, so dirty victims reach DRAM
	// in the cycle of a demanded fill and in another bank. Each mix is
	// recorded under CTD and replayed on the undefended controller, and
	// the replay must take the direct run's cycles. In three of these
	// mixes (seeds 105, 136 and 147) a victim that took its fill's drift
	// would finish a cycle off.
	ctd := quietConfig()
	ctd.Mem.Defense = memctrl.DefenseConstantTime
	pool := NewPool()
	get := func(cfg Config) *Machine {
		m, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var trace Trace
	for seed := uint64(1); seed <= 160; seed++ {
		rng := stats.NewRNG(seed)
		run := func(c *Core) {
			h := c.Hierarchy()
			for range 400 {
				a := uint64(rng.Intn(4))
				b := uint64(rng.Intn(64))
				addr := 0x10_0000_0000 + a<<17 + b<<19
				c.Advance(3)
				if rng.Intn(2) == 0 {
					h.Store(c.Now(), addr, uint64(rng.Intn(1000)))
					c.Advance(1)
				} else {
					c.Load(addr, uint64(rng.Intn(1000)))
				}
			}
		}
		rec := get(ctd)
		rec.Record(&trace)
		run(rec.Core(0))
		direct := get(quietConfig())
		rng = stats.NewRNG(seed)
		run(direct.Core(0))
		replay := get(quietConfig())
		if got, want := rec.Core(0).Now()+replay.Replay(&trace), direct.Core(0).Now(); got != want {
			t.Fatalf("seed %d: replay took %d cycles, direct run %d", seed, got, want)
		}
		pool.Put(rec)
		pool.Put(direct)
		pool.Put(replay)
	}
}
