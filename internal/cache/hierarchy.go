package cache

import "fmt"

// Hierarchy assembles the paper's three-level cache hierarchy (Table 2:
// 32 KB L1D LRU, 2 MB L2 SRRIP, shared LLC SRRIP) over a memory backend,
// with optional IP-stride (L1) and streamer (L2) prefetchers.
type Hierarchy struct {
	l1, l2, llc *Cache
	backend     Level

	ipStride *IPStridePrefetcher
	streamer *StreamerPrefetcher

	// FlushOverhead models the serialization cost of a clflush
	// instruction beyond the cache probes themselves.
	FlushOverhead int64
}

// HierarchyConfig sizes the three levels. Latencies follow Table 2 except
// the LLC latency, which callers derive from cacti.LLCLatencyWays so the
// Figure 2/3/9 sweeps scale correctly.
type HierarchyConfig struct {
	L1  Config
	L2  Config
	LLC Config
	// EnablePrefetchers attaches the IP-stride and streamer prefetchers,
	// which the paper simulates as noise sources.
	EnablePrefetchers bool
}

// DefaultHierarchyConfig returns the Table 2 hierarchy with the given LLC
// size (bytes), ways, and access latency.
func DefaultHierarchyConfig(llcBytes, llcWays int, llcLatency int64) HierarchyConfig {
	return HierarchyConfig{
		L1: Config{
			Name: "l1d", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64,
			Latency: 4, Policy: PolicyLRU,
		},
		L2: Config{
			Name: "l2", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64,
			Latency: 16, Policy: PolicySRRIP,
		},
		LLC: Config{
			Name: "llc", SizeBytes: llcBytes, Ways: llcWays, LineBytes: 64,
			Latency: llcLatency, Policy: PolicySRRIP,
		},
		EnablePrefetchers: true,
	}
}

// NewHierarchySharedLLC builds private L1/L2 levels over an existing
// (shared) LLC, as in the paper's Table 2 system where four cores share the
// last-level cache. backend is the memory level below the LLC, needed for
// clflush writebacks.
func NewHierarchySharedLLC(cfg HierarchyConfig, llc *Cache, backend Level) (*Hierarchy, error) {
	l2, err := New(cfg.L2, llc)
	if err != nil {
		return nil, fmt.Errorf("l2: %w", err)
	}
	l1, err := New(cfg.L1, l2)
	if err != nil {
		return nil, fmt.Errorf("l1: %w", err)
	}
	h := &Hierarchy{l1: l1, l2: l2, llc: llc, backend: backend, FlushOverhead: 20}
	if cfg.EnablePrefetchers {
		h.ipStride = NewIPStridePrefetcher(64)
		h.streamer = NewStreamerPrefetcher(16, 2)
	}
	return h, nil
}

// L1 returns the first-level cache.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the mid-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// LLC returns the last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// Load performs a demand load at program counter pc, returning its latency.
// Prefetchers observe the access and may issue additional fills, which
// perturb DRAM row-buffer state (the paper's simulated noise) without
// charging the demand load.
func (h *Hierarchy) Load(now int64, addr uint64, pc uint64) int64 {
	lat := h.l1.Access(now, addr, false)
	if h.ipStride != nil {
		if pfAddr, ok := h.ipStride.Observe(pc, addr); ok {
			h.l1.Access(now+lat, pfAddr, false)
		}
	}
	if h.streamer != nil {
		for _, pfAddr := range h.streamer.Observe(addr) {
			h.l2.Access(now+lat, pfAddr, false)
		}
	}
	return lat
}

// Store performs a demand store.
func (h *Hierarchy) Store(now int64, addr uint64, pc uint64) int64 {
	return h.l1.Access(now, addr, true)
}

// Flush implements clflush: it invalidates addr at every level and writes
// dirty data back to memory. The returned latency includes the per-level tag
// probes, the writeback if one was needed, and the instruction's
// serialization overhead — this is the "write-back latency on the critical
// path" cost the paper identifies for specialized flush instructions.
func (h *Hierarchy) Flush(now int64, addr uint64) int64 {
	lat := h.FlushOverhead
	dirty := false
	for _, c := range []*Cache{h.l1, h.l2, h.llc} {
		lat += c.Config().Latency
		if present, d := c.Invalidate(addr); present && d {
			dirty = true
		}
	}
	if dirty {
		lat += h.backend.Access(now+lat, addr, true)
	}
	return lat
}

// LoadUncached charges a load that bypasses all cache levels (used by the
// idealized direct-memory-access attack of Section 3.3).
func (h *Hierarchy) LoadUncached(now int64, addr uint64) int64 {
	return h.backend.Access(now, addr, false)
}

// EvictionSet returns n addresses distinct from target that map to the same
// LLC set, spaced so they also map to distinct cache lines. The addresses
// stride across LLC tag space, so loading all of them displaces the target
// under both LRU and SRRIP.
func (h *Hierarchy) EvictionSet(target uint64, n int) []uint64 {
	set := h.llc.SetIndex(target)
	stride := uint64(h.llc.Sets()) << h.llc.LineBits()
	base := (target & (stride - 1) &^ ((1 << h.llc.LineBits()) - 1)) | uint64(set)<<h.llc.LineBits()
	out := make([]uint64, 0, n)
	for i := 1; len(out) < n; i++ {
		candidate := base + uint64(i)*stride
		if candidate != target {
			out = append(out, candidate)
		}
	}
	return out
}

// FlushAll empties every level (used between experiments).
func (h *Hierarchy) FlushAll() {
	h.l1.FlushAll()
	h.l2.FlushAll()
	h.llc.FlushAll()
}

// ResetPrivate returns the hierarchy's private levels (L1, L2) and
// prefetcher tables to their just-constructed state. The shared LLC is
// reset separately by the machine that owns it, since several hierarchies
// share one LLC instance.
func (h *Hierarchy) ResetPrivate() {
	h.l1.Reset()
	h.l2.Reset()
	if h.ipStride != nil {
		h.ipStride.Reset()
	}
	if h.streamer != nil {
		h.streamer.Reset()
	}
}
