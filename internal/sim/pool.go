package sim

import (
	"sync"
	"sync/atomic"
)

// Pool recycles Machine allocations across runs. Building a machine costs
// ~7 MB in ~240 allocations (DRAM banks, three cache levels' line arrays),
// most of a quick cold run; a pooled machine whose allocation shape
// matches the requested configuration is Reset in microseconds instead.
// Machines are pooled per shape — the tuple of everything Machine.Reset
// refuses to change (core count, prefetcher wiring, DRAM bank geometry,
// LLC geometry) — so a sweep alternating between, say, two LLC sizes
// reuses a machine of each shape instead of thrashing one slot.
//
// Pool is safe for concurrent use. Get hands out machines configured
// exactly as New(cfg) would produce them — Reset is provably state-free
// (see TestPooledMachineDeterminism in internal/exp) — and Put returns a
// machine for reuse in any state, since the next Get fully reinitializes
// it. Machines are retained under sync.Pool semantics: idle ones may be
// dropped at any GC, so the pool never pins memory under low load. A nil
// *Pool pools nothing: its Get builds with New and its Put drops the
// machine.
type Pool struct {
	mu     sync.Mutex
	shapes map[shapeKey]*sync.Pool

	hits   atomic.Int64
	misses atomic.Int64
	drops  atomic.Int64
}

// NewPool returns an empty machine pool.
func NewPool() *Pool {
	return &Pool{shapes: make(map[shapeKey]*sync.Pool)}
}

// PoolStats counts pool traffic: Hits reused a pooled machine, Misses built
// a fresh one, and Drops (a subset of Misses) discarded a pooled machine
// that Reset nevertheless refused (an invalid or exotic configuration the
// shape key cannot distinguish).
type PoolStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Drops  int64 `json:"drops"`
}

// shapeKey is the allocation shape Machine.Reset requires to match: two
// configs with equal keys differ only in parameters Reset can apply in
// place. LLC line size is fixed by hierarchyConfig, so bytes+ways
// determine the LLC arrays.
type shapeKey struct {
	cores, banks, rowBytes, llcBytes, llcWays int
	prefetchers                               bool
}

func shapeOf(cfg Config) shapeKey {
	return shapeKey{
		cores:       cfg.Cores,
		banks:       cfg.DRAM.TotalBanks(),
		rowBytes:    cfg.DRAM.RowBytes,
		llcBytes:    cfg.LLCBytes,
		llcWays:     cfg.LLCWays,
		prefetchers: cfg.EnablePrefetchers,
	}
}

// shape returns the sync.Pool for one allocation shape.
func (p *Pool) shape(key shapeKey) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.shapes[key]
	if sp == nil {
		sp = &sync.Pool{}
		p.shapes[key] = sp
	}
	return sp
}

// Get returns a machine configured as New(cfg) would produce, reusing a
// pooled machine's allocations when possible.
func (p *Pool) Get(cfg Config) (*Machine, error) {
	if p == nil {
		return New(cfg)
	}
	sp := p.shape(shapeOf(cfg))
	if m, _ := sp.Get().(*Machine); m != nil {
		if m.Reset(cfg) {
			p.hits.Add(1)
			return m, nil
		}
		// Reset refused despite the matching shape key (for example a
		// config that no longer validates): discard to GC and build fresh
		// rather than re-pooling a machine Get can never hand out.
		p.drops.Add(1)
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.misses.Add(1)
	return m, nil
}

// Put returns a machine to the pool for a future Get of the same shape.
// It accepts machines in any state (including mid-run state after a
// panic): Get fully reinitializes them before reuse. Put(nil) is a no-op.
func (p *Pool) Put(m *Machine) {
	if p != nil && m != nil {
		p.shape(shapeOf(m.Config())).Put(m)
	}
}

// Stats returns a snapshot of pool traffic counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
		Drops:  p.drops.Load(),
	}
}
