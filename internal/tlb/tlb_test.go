package tlb

import (
	"testing"

	"repro/internal/stats"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := New(Config{Entries: 16, Ways: 4, Latency: 1, PageBits: 12})
	if tlb.Lookup(0x1000) {
		t.Fatal("cold lookup hit")
	}
	if !tlb.Lookup(0x1abc) {
		t.Fatal("same-page lookup missed")
	}
	if tlb.Lookup(0x2000) {
		t.Fatal("different page hit")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tlb := New(Config{Entries: 4, Ways: 4, Latency: 1, PageBits: 12})
	// One set of 4 ways: the fifth distinct page evicts the LRU.
	for p := uint64(0); p < 5; p++ {
		tlb.Lookup(p << 12)
	}
	if tlb.Lookup(0) {
		t.Fatal("LRU entry survived capacity eviction")
	}
	if !tlb.Lookup(4 << 12) {
		t.Fatal("most recent entry evicted")
	}
}

func TestTLBFlushAll(t *testing.T) {
	tlb := New(Config{Entries: 16, Ways: 4, Latency: 1, PageBits: 12})
	tlb.Lookup(0x5000)
	tlb.FlushAll()
	if tlb.Lookup(0x5000) {
		t.Fatal("entry survived FlushAll")
	}
}

func TestMMUWalkPath(t *testing.T) {
	var walks int
	mmu := DefaultMMU(func(_ int64, level int, _ uint64) int64 {
		walks++
		return 30
	})
	lat := mmu.Translate(0, 0xdead000, false)
	// Cold: L1 probe (1) + L2 probe (12) + 4 walk levels x 30.
	if want := int64(1 + 12 + 4*30); lat != want {
		t.Fatalf("cold translate latency = %d, want %d", lat, want)
	}
	if walks != 4 {
		t.Fatalf("walker invoked %d times, want 4", walks)
	}
	// Warm: L1 hit.
	if lat := mmu.Translate(100, 0xdead000, false); lat != 1 {
		t.Fatalf("warm translate latency = %d, want 1", lat)
	}
	if got := mmu.Counters().Get("walk"); got != 1 {
		t.Fatalf("walk counter = %d, want 1", got)
	}
}

func TestMMUL2Hit(t *testing.T) {
	mmu := DefaultMMU(func(_ int64, _ int, _ uint64) int64 { return 30 })
	// Fill the 64-entry L1 DTLB past capacity; early pages stay in L2.
	for p := uint64(0); p < 80; p++ {
		mmu.Translate(0, p<<12, false)
	}
	lat := mmu.Translate(0, 0, false)
	if want := int64(1 + 12); lat != want {
		t.Fatalf("L2-hit latency = %d, want %d", lat, want)
	}
}

func TestMMUHugePages(t *testing.T) {
	mmu := DefaultMMU(func(_ int64, _ int, _ uint64) int64 { return 30 })
	mmu.Translate(0, 0x200000, true)
	if lat := mmu.Translate(0, 0x2abcde, true); lat != 1 {
		t.Fatalf("huge-page warm translate = %d, want 1", lat)
	}
}

func TestMMUFlushAll(t *testing.T) {
	var walks int
	mmu := DefaultMMU(func(_ int64, _ int, _ uint64) int64 { walks++; return 30 })
	mmu.Translate(0, 0x7000, false)
	mmu.FlushAll()
	mmu.Translate(0, 0x7000, false)
	if walks != 8 {
		t.Fatalf("walker invoked %d times, want 8 (two full walks)", walks)
	}
}

// refTLB is the reference model of TLB: the array of entry structs it
// replaced, with a valid flag per entry, a set picked by modulo, and a
// flush that clears every entry.
type refTLB struct {
	cfg   Config
	sets  int
	lines []refEntry
	tick  int64
}

type refEntry struct {
	vpn   uint64
	valid bool
	lru   int64
}

func newRefTLB(cfg Config) *refTLB {
	sets := cfg.Entries / cfg.Ways
	return &refTLB{cfg: cfg, sets: sets, lines: make([]refEntry, sets*cfg.Ways)}
}

func (t *refTLB) set(vaddr uint64) []refEntry {
	lo := int(vaddr>>t.cfg.PageBits%uint64(t.sets)) * t.cfg.Ways
	return t.lines[lo : lo+t.cfg.Ways]
}

func (t *refTLB) Lookup(vaddr uint64) bool {
	t.tick++
	vpn := vaddr >> t.cfg.PageBits
	ways := t.set(vaddr)
	for i := range ways {
		if ways[i].valid && ways[i].vpn == vpn {
			ways[i].lru = t.tick
			return true
		}
	}
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = refEntry{vpn: vpn, valid: true, lru: t.tick}
	return false
}

func (t *refTLB) FlushAll() { clear(t.lines) }

func (t *refTLB) Reset() {
	t.FlushAll()
	t.tick = 0
}

// TestTLBMatchesReference drives TLB and the entry-array reference model
// with the same seeded lookups, flushes and resets, and requires the same
// answer at every step and the same entries, way by way, in the touched
// set. So it holds the reference's fill order: a flushed set fills ways
// 1…n−1, then way 0, then evicts the least recently used way. Every 1,000
// steps the page pool moves between below, at and above one set's ways.
func TestTLBMatchesReference(t *testing.T) {
	const steps = 12_000
	for _, cfg := range []Config{
		{Entries: 4, Ways: 4, PageBits: 12},
		{Entries: 8, Ways: 1, PageBits: 12},
		{Entries: 16, Ways: 2, PageBits: 12},
		{Entries: 48, Ways: 3, PageBits: 12},
		{Entries: 64, Ways: 4, PageBits: 12},
		{Entries: 32, Ways: 4, PageBits: 21},
		{Entries: 1536, Ways: 12, PageBits: 12},
		{Entries: 128, Ways: 16, PageBits: 12},
	} {
		tlb, ref := New(cfg), newRefTLB(cfg)
		sets := cfg.Entries / cfg.Ways
		rng := stats.NewRNG(uint64(cfg.Entries)<<8 | uint64(cfg.Ways))
		perSet := []int{max(cfg.Ways/2, 1), cfg.Ways, cfg.Ways + cfg.Ways/2 + 1}
		var pool []uint64
		var hits int
		for i := 0; i < steps; i++ {
			if i%1_000 == 0 {
				pool = pool[:0]
				n := perSet[i/1_000%len(perSet)]
				for s := 0; s < sets; s++ {
					for k := 0; k < n; k++ {
						vpn := (rng.Uint64()>>cfg.PageBits)&^uint64(sets-1) | uint64(s)
						pool = append(pool, vpn<<cfg.PageBits|uint64(rng.Intn(1<<cfg.PageBits)))
					}
				}
			}
			vaddr := pool[rng.Intn(len(pool))]
			what := "Lookup"
			switch op := rng.Intn(1000); {
			case op < 995:
				got, want := tlb.Lookup(vaddr), ref.Lookup(vaddr)
				if got != want {
					t.Fatalf("%+v step %d: Lookup(%#x) = %v, reference %v", cfg, i, vaddr, got, want)
				}
				if got {
					hits++
				}
			case op < 998:
				what = "FlushAll"
				tlb.FlushAll()
				ref.FlushAll()
			default:
				what = "Reset"
				tlb.Reset()
				ref.Reset()
			}
			set := int(vaddr >> cfg.PageBits & uint64(sets-1))
			lo := set * cfg.Ways
			for w := 0; w < cfg.Ways; w++ {
				got := refEntry{valid: tlb.keys[lo+w] != 0}
				if got.valid {
					got.vpn, got.lru = tlb.keys[lo+w]-1, int64(tlb.lru[lo+w])
				}
				want := ref.lines[lo+w]
				if !want.valid {
					want = refEntry{}
				}
				if got != want {
					t.Fatalf("%+v step %d after %s(%#x): set %d way %d = %+v, reference %+v", cfg, i, what, vaddr, set, w, got, want)
				}
			}
		}
		if hits == 0 {
			t.Fatalf("%+v: no lookup hit", cfg)
		}
	}
}

// TestNewRejectsBadGeometry pins New's documented geometry: entries that
// do not divide into whole sets of Ways, and a set count that is not a
// power of two, which the set mask would silently alias.
func TestNewRejectsBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 10, Ways: 4, PageBits: 12},
		{Entries: 24, Ways: 4, PageBits: 12},
		{Entries: 0, Ways: 4, PageBits: 12},
		{Entries: 16, Ways: 0, PageBits: 12},
		{Entries: 16, Ways: 4, PageBits: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
