package cache

import "testing"

func testHierarchy(t *testing.T, prefetch bool) (*Hierarchy, *fixedMem) {
	t.Helper()
	mem := &fixedMem{latency: 120}
	cfg := DefaultHierarchyConfig(8<<20, 16, 50)
	cfg.EnablePrefetchers = prefetch
	llc, err := New(cfg.LLC, mem)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchySharedLLC(cfg, llc, mem)
	if err != nil {
		t.Fatal(err)
	}
	return h, mem
}

func TestHierarchyLoadPopulatesAllLevels(t *testing.T) {
	h, _ := testHierarchy(t, false)
	lat := h.Load(0, 0x4000, 0x1)
	// Cold load: L1 + L2 + LLC lookups plus the memory fill.
	want := int64(4 + 16 + 50 + 120)
	if lat != want {
		t.Fatalf("cold load latency = %d, want %d", lat, want)
	}
	if !h.L1().Contains(0x4000) || !h.L2().Contains(0x4000) || !h.LLC().Contains(0x4000) {
		t.Fatal("line missing from some level after cold load")
	}
	if lat := h.Load(0, 0x4000, 0x1); lat != 4 {
		t.Fatalf("warm load latency = %d, want 4 (L1 hit)", lat)
	}
}

func TestHierarchyFlushRemovesEverywhere(t *testing.T) {
	h, mem := testHierarchy(t, false)
	h.Store(0, 0x5000, 0x1)
	lat := h.Flush(0, 0x5000)
	if h.L1().Contains(0x5000) || h.L2().Contains(0x5000) || h.LLC().Contains(0x5000) {
		t.Fatal("line survived Flush at some level")
	}
	if len(mem.writes) != 1 {
		t.Fatalf("dirty flush wrote back %d times, want 1", len(mem.writes))
	}
	// Flush must cost at least the per-level probes plus the writeback.
	if lat < h.FlushOverhead+4+16+50+120 {
		t.Fatalf("flush latency %d too small", lat)
	}
	// Reload goes to memory again.
	if lat := h.Load(0, 0x5000, 0x1); lat < 120 {
		t.Fatalf("post-flush load latency = %d, want a memory access", lat)
	}
}

func TestHierarchyFlushCleanLineNoWriteback(t *testing.T) {
	h, mem := testHierarchy(t, false)
	h.Load(0, 0x6000, 0x1)
	h.Flush(0, 0x6000)
	if len(mem.writes) != 0 {
		t.Fatalf("clean flush wrote back %d times, want 0", len(mem.writes))
	}
}

func TestHierarchyEvictionSetProperties(t *testing.T) {
	h, _ := testHierarchy(t, false)
	target := uint64(0x123456780)
	set := h.EvictionSet(target, 16)
	if len(set) != 16 {
		t.Fatalf("eviction set size = %d, want 16", len(set))
	}
	wantSet := h.LLC().SetIndex(target)
	seen := map[uint64]bool{target: true}
	for _, a := range set {
		if got := h.LLC().SetIndex(a); got != wantSet {
			t.Fatalf("eviction addr %#x maps to set %d, want %d", a, got, wantSet)
		}
		if seen[a] {
			t.Fatalf("duplicate eviction addr %#x", a)
		}
		seen[a] = true
	}
}

func TestHierarchyEvictionSetDisplacesTarget(t *testing.T) {
	h, _ := testHierarchy(t, false)
	// Wire inclusive back-invalidation as the machine does.
	h.LLC().SetEvictHook(func(addr uint64) {
		h.L1().Invalidate(addr)
		h.L2().Invalidate(addr)
	})
	target := uint64(0x7654000)
	h.Load(0, target, 0x1)
	for _, a := range h.EvictionSet(target, h.LLC().Config().Ways) {
		h.Load(0, a, 0x2)
	}
	if h.LLC().Contains(target) {
		t.Fatal("target still in LLC after loading a full eviction set")
	}
	if h.L1().Contains(target) {
		t.Fatal("target still in L1: back-invalidation failed")
	}
}

func TestHierarchySharedLLC(t *testing.T) {
	mem := &fixedMem{latency: 120}
	cfg := DefaultHierarchyConfig(8<<20, 16, 50)
	cfg.EnablePrefetchers = false
	llc, err := New(cfg.LLC, mem)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := NewHierarchySharedLLC(cfg, llc, mem)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHierarchySharedLLC(cfg, llc, mem)
	if err != nil {
		t.Fatal(err)
	}
	h1.Load(0, 0x9000, 0x1)
	// Core 2 misses its private levels but hits the shared LLC.
	lat := h2.Load(0, 0x9000, 0x1)
	want := int64(4 + 16 + 50)
	if lat != want {
		t.Fatalf("cross-core load latency = %d, want %d (shared LLC hit)", lat, want)
	}
}

func TestHierarchyLoadUncachedBypasses(t *testing.T) {
	h, mem := testHierarchy(t, false)
	h.LoadUncached(0, 0xa000)
	if h.L1().Contains(0xa000) || h.LLC().Contains(0xa000) {
		t.Fatal("uncached load polluted the caches")
	}
	if len(mem.accesses) != 1 {
		t.Fatalf("memory accesses = %d, want 1", len(mem.accesses))
	}
}

func TestIPStridePrefetcher(t *testing.T) {
	p := NewIPStridePrefetcher(8)
	pc := uint64(0x400)
	var got uint64
	var fired bool
	for i := 0; i < 4; i++ {
		got, fired = p.Observe(pc, uint64(0x1000+i*64))
	}
	if !fired {
		t.Fatal("confident stride did not prefetch")
	}
	if want := uint64(0x1000 + 4*64); got != want {
		t.Fatalf("prefetch addr = %#x, want %#x", got, want)
	}
	// A stride change resets confidence.
	if _, fired = p.Observe(pc, 0x9000); fired {
		t.Fatal("prefetched immediately after stride break")
	}
}

func TestStreamerPrefetcher(t *testing.T) {
	p := NewStreamerPrefetcher(4, 2)
	p.Observe(0x2000)
	out := p.Observe(0x2040)
	if len(out) != 2 {
		t.Fatalf("streamer issued %d prefetches, want 2", len(out))
	}
	if out[0] != 0x2080 || out[1] != 0x20c0 {
		t.Fatalf("streamer prefetched %#x %#x, want 0x2080 0x20c0", out[0], out[1])
	}
	// Non-sequential access: no prefetch.
	if out := p.Observe(0x2400); out != nil {
		t.Fatalf("non-sequential access prefetched %v", out)
	}
}

func TestHierarchyPrefetcherFillsNextLine(t *testing.T) {
	h, _ := testHierarchy(t, true)
	pc := uint64(0x500)
	for i := 0; i < 4; i++ {
		h.Load(0, uint64(0x10000+i*64), pc)
	}
	// After a confident stride, the next line should have been prefetched.
	if lat := h.Load(0, 0x10000+4*64, pc); lat != 4 {
		t.Fatalf("prefetched line load latency = %d, want 4 (L1 hit)", lat)
	}
}
