package sim

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/pim"
	"repro/internal/tlb"
)

// Core is one simulated CPU core with its own logical clock, private L1/L2
// caches over the shared LLC, an MMU, and access to the machine's PIM
// engines. A core's clock only moves forward; all latencies the attack code
// "measures" are differences of this clock, never wall-clock time.
type Core struct {
	m    *Machine
	id   int
	hier *cache.Hierarchy
	mmu  *tlb.MMU

	clock   int64
	pending []int64
}

// newCore assembles one core over the shared LLC.
func newCore(m *Machine, id int, hcfg cache.HierarchyConfig, llc *cache.Cache, backend cache.Level) (*Core, error) {
	hier, err := cache.NewHierarchySharedLLC(hcfg, llc, backend, id)
	if err != nil {
		return nil, err
	}
	c := &Core{m: m, id: id, hier: hier}
	// Page-table walks go through the shared LLC to DRAM: the first walk
	// of a page disturbs a row buffer, repeats mostly hit the LLC. Each
	// level marks its entry as demanded, since its fill moves the clock.
	const pageTableBase = 0x7f00_0000_0000
	c.mmu = tlb.DefaultMMU(func(now int64, level int, vaddr uint64) int64 {
		pte := pageTableBase + (vaddr>>12)*8 + uint64(level)*(1<<28)
		m.demand = pte
		return llc.Access(now, pte, false)
	})
	return c, nil
}

// ID returns the core index; it doubles as the process identifier for
// memory-controller ownership checks.
func (c *Core) ID() int { return c.id }

// Now returns the core's current cycle.
func (c *Core) Now() int64 { return c.clock }

// Advance moves the clock forward by d cycles (negative values are ignored).
//
//impact:hotpath
func (c *Core) Advance(d int64) {
	if d > 0 {
		c.clock += d
	}
}

// AdvanceTo moves the clock forward to t if t is in the future.
//
//impact:hotpath
func (c *Core) AdvanceTo(t int64) {
	if t > c.clock {
		c.clock = t
	}
}

// Hierarchy exposes the core's cache hierarchy.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// MMU exposes the core's MMU.
func (c *Core) MMU() *tlb.MMU { return c.mmu }

// Rdtscp reads the timestamp counter: it advances the clock by the timer
// cost and returns the post-read cycle, mirroring how rdtscp serializes
// reads on real hardware.
//
//impact:hotpath
func (c *Core) Rdtscp() int64 {
	c.clock += c.m.cfg.Costs.TimerCost
	return c.clock
}

// Serialize models the cpuid instruction the paper's receiver issues around
// rdtscp for precise measurement.
func (c *Core) Serialize() {
	c.clock += c.m.cfg.Costs.SerializeCost
}

// Fence drains all outstanding asynchronous operations issued by this core
// (Listing 1/2 memory_fence): the clock advances to the latest completion.
func (c *Core) Fence() {
	c.clock += c.m.cfg.Costs.FenceBase
	for _, t := range c.pending {
		if t > c.clock {
			c.clock = t
		}
	}
	c.pending = c.pending[:0]
}

// track registers an asynchronous completion for the next fence.
func (c *Core) track(completedAt int64) {
	c.pending = append(c.pending, completedAt)
}

// TranslateTouch warms the translation for vaddr without touching the data:
// the attacker's trick for keeping page walks out of its timed probes.
//
//impact:hotpath
func (c *Core) TranslateTouch(vaddr uint64) int64 {
	lat := c.mmu.Translate(c.clock, vaddr, false)
	c.clock += lat
	return lat
}

// Load performs a demand load at the given virtual address and program
// counter: address translation (possibly a page-table walk) followed by the
// cache hierarchy. The clock advances by the total latency, which is also
// returned. It marks vaddr as demanded, so a Trace can tell its fill from
// the requests the clock does not wait for.
//
//impact:hotpath
func (c *Core) Load(vaddr uint64, pc uint64) int64 {
	lat := c.mmu.Translate(c.clock, vaddr, false)
	c.m.demand = vaddr
	lat += c.hier.Load(c.clock+lat, vaddr, pc)
	c.clock += lat
	return lat
}

// LoadOverlapped performs a demand load whose miss latency partially
// overlaps with other outstanding misses (memory-level parallelism), as in
// an eviction-set loop. Cache and DRAM state update fully, but the clock
// advances only by the exposed fraction: the LLC lookup plus mlp times the
// remaining miss latency.
//
//impact:hotpath
func (c *Core) LoadOverlapped(vaddr uint64, pc uint64, mlp float64) int64 {
	lat := c.mmu.Translate(c.clock, vaddr, false)
	full := c.hier.Load(c.clock+lat, vaddr, pc)
	llcLat := c.m.llc.Config().Latency
	exposed := full
	if full > llcLat {
		exposed = llcLat + int64(mlp*float64(full-llcLat))
	}
	lat += exposed
	c.clock += lat
	return lat
}

// LoadUncached performs a load that bypasses the cache hierarchy (the
// idealized direct-memory-access primitive of Section 3.3). Translation is
// still paid.
func (c *Core) LoadUncached(vaddr uint64) int64 {
	lat := c.mmu.Translate(c.clock, vaddr, false)
	lat += c.m.memAccess(c.clock+lat, vaddr, c.id)
	c.clock += lat
	return lat
}

// ActivateAsync issues a fire-and-forget row activation straight at the
// memory controller (an idealized direct-access request with no cache or
// PIM interface cost). The clock advances by a small issue cost; the
// completion is drained by the next Fence.
func (c *Core) ActivateAsync(bank int, row int64) error {
	const issueCost = 10
	res, err := c.m.ctrl.Activate(c.clock+issueCost, bank, row, c.id)
	if err != nil {
		return err
	}
	c.clock += issueCost
	c.track(c.clock + res.Latency)
	return nil
}

// Flush executes clflush on the line containing vaddr.
func (c *Core) Flush(vaddr uint64) int64 {
	lat := c.hier.Flush(c.clock, vaddr)
	c.clock += lat
	return lat
}

// PEIAccess executes a PEI synchronously (receiver probe, Listing 1 line
// 24): address translation, then the PEI round trip. The clock advances by
// the total latency.
func (c *Core) PEIAccess(vaddr uint64) (pim.PEIResult, error) {
	c.clock += c.mmu.Translate(c.clock, vaddr, false)
	res, err := c.m.pei.Execute(c.clock, vaddr, c.id)
	if err != nil {
		return pim.PEIResult{}, err
	}
	c.clock += res.Latency
	return res, nil
}

// PEIActivate issues a fire-and-forget PEI that opens the target row
// (sender transmit, Listing 1 line 11). Translation and the issue cost are
// charged now; the completion is drained by the next Fence.
func (c *Core) PEIActivate(vaddr uint64) (pim.PEIResult, error) {
	c.clock += c.mmu.Translate(c.clock, vaddr, false)
	res, err := c.m.pei.ExecuteAsync(c.clock, vaddr, c.id)
	if err != nil {
		return pim.PEIResult{}, err
	}
	c.clock += res.Latency
	c.track(res.CompletedAt)
	return res, nil
}

// RowCloneSubmit issues one masked, asynchronous RowClone request
// (Listing 2 line 20).
func (c *Core) RowCloneSubmit(banks []int, mask uint64, srcRow, dstRow int64) (pim.RowCloneResult, error) {
	res, err := c.m.rowClone.Submit(c.clock, banks, mask, srcRow, dstRow, c.id)
	if err != nil {
		return pim.RowCloneResult{}, err
	}
	c.clock += res.IssueLatency
	c.track(res.CompletedAt)
	return res, nil
}

// RowCloneMeasure issues a single-bank RowClone synchronously and returns
// the device result (receiver probe, Listing 2 line 31).
func (c *Core) RowCloneMeasure(bank int, srcRow, dstRow int64) (dram.AccessResult, error) {
	res, err := c.m.rowClone.Measure(c.clock, bank, srcRow, dstRow, c.id)
	if err != nil {
		return dram.AccessResult{}, err
	}
	c.clock += res.Latency
	return res, nil
}

// DMATransfer models one transfer through the (R)DMA engine: syscall and
// descriptor-setup overheads dominate, then the device touches DRAM
// directly.
func (c *Core) DMATransfer(vaddr uint64) int64 {
	costs := c.m.cfg.Costs
	lat := costs.DMASyscall + costs.DMASetup
	lat += c.m.memAccess(c.clock+lat, vaddr, c.id)
	c.clock += lat
	return lat
}

// LoopTick charges the per-iteration loop overhead of attack loops.
//
//impact:hotpath
func (c *Core) LoopTick() {
	c.clock += c.m.cfg.Costs.LoopOverhead
}

// Reset rewinds the core's clock and pending operations (used between
// experiment repetitions; cache/TLB contents persist unless flushed).
func (c *Core) Reset() {
	c.clock = 0
	c.pending = c.pending[:0]
}
