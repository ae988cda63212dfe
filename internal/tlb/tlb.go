// Package tlb models the paper's Table 2 MMU: a split L1 DTLB (4 KiB and
// 2 MiB pages), a unified L2 TLB, and a page-table walker whose memory
// accesses go to real (simulated) DRAM — making address translation both a
// latency component and a row-buffer noise source, exactly as in the
// paper's Sniper setup.
package tlb

import (
	"fmt"

	"repro/internal/stats"
)

// Fixed counter IDs for MMU statistics, in the slot order passed to
// stats.NewFixed in DefaultMMU.
const (
	CounterL1Hit stats.CounterID = iota
	CounterL2Hit
	CounterWalk
)

// Config describes one TLB level.
type Config struct {
	Entries int
	Ways    int
	// Latency is the lookup cost in cycles.
	Latency int64
	// PageBits is log2 of the page size covered (12 for 4 KiB, 21 for 2 MiB).
	PageBits uint
}

// TLB is a set-associative translation cache keyed by virtual page number.
// Its entries live in per-way arrays, way w of set s at index s*Ways+w of
// each.
type TLB struct {
	cfg     Config
	setMask uint64
	// keys holds vpn+1 for each valid entry and 0 for an invalid one, and
	// lru orders eviction. Both are carved from one array.
	keys []uint64
	lru  []uint64
	tick uint64
}

// New builds a TLB. Entries must be divisible by Ways, the set count must
// be a power of two, and a page must be at least 2 bytes; the Table 2 L2
// TLB (1536 entries, 12-way, 128 sets) satisfies this. Only DefaultMMU's
// fixed geometries reach New, so it panics on any other shape.
func New(cfg Config) *TLB {
	if cfg.Ways <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: %d entries do not divide into sets of %d ways", cfg.Entries, cfg.Ways))
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("tlb: set count %d not a power of two", sets))
	}
	if cfg.PageBits == 0 {
		// The page number would be the whole address, and the all-ones
		// address's key, vpn+1, would read as an invalid entry.
		panic("tlb: zero page bits")
	}
	n := cfg.Entries
	words := make([]uint64, 2*n)
	return &TLB{cfg: cfg, setMask: uint64(sets - 1), keys: words[:n:n], lru: words[n:]}
}

// Lookup probes the TLB for the page containing vaddr, inserting on miss.
// A miss fills the first free way from way 1 on, then way 0, and in a full
// set the least recently used way.
//
//impact:hotpath
func (t *TLB) Lookup(vaddr uint64) bool {
	t.tick++
	vpn := vaddr >> t.cfg.PageBits
	set := vpn & t.setMask
	lo := int(set) * t.cfg.Ways
	hi := lo + t.cfg.Ways
	keys, lru := t.keys[lo:hi:hi], t.lru[lo:hi:hi]
	key := vpn + 1
	victim := -1
	for i, k := range keys {
		if k == key {
			lru[i] = t.tick
			return true
		}
		if k == 0 && victim < 0 && i > 0 {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		if keys[0] != 0 {
			for i := 1; i < len(lru); i++ {
				if lru[i] < lru[victim] {
					victim = i
				}
			}
		}
	}
	keys[victim] = key
	lru[victim] = t.tick
	return false
}

// Latency returns the lookup cost.
func (t *TLB) Latency() int64 { return t.cfg.Latency }

// FlushAll empties the TLB. A way's LRU stamp is written when it fills,
// so clearing the keys is enough.
func (t *TLB) FlushAll() {
	clear(t.keys)
}

// Reset returns the TLB to its just-constructed state: entries cleared and
// the LRU tick restarted. TLBs are small (at most 1,536 entries), so a
// plain clear is cheap enough: per-set stamps like the caches' left the
// cold-sweep benchmark workload unchanged (docs/benchmark.md).
func (t *TLB) Reset() {
	t.FlushAll()
	t.tick = 0
}

// Walker performs the memory accesses of a page-table walk. The MMU calls
// it once per walk level; implementations route the access to the memory
// system so walks disturb DRAM state.
type Walker func(now int64, level int, vaddr uint64) int64

// MMU combines the TLB hierarchy with a page-table walker.
type MMU struct {
	dtlb4k *TLB
	dtlb2m *TLB
	stlb   *TLB
	walker Walker
	// WalkLevels is the number of page-table levels touched on a full
	// walk (4 for x86-64).
	WalkLevels int
	counters   *stats.Counters
}

// DefaultMMU builds the Table 2 MMU: 64-entry 4-way 1-cycle L1 DTLB (4 KiB),
// 32-entry 4-way 1-cycle L1 DTLB (2 MiB), 1536-entry 12-way 12-cycle L2 TLB.
func DefaultMMU(walker Walker) *MMU {
	return &MMU{
		dtlb4k:     New(Config{Entries: 64, Ways: 4, Latency: 1, PageBits: 12}),
		dtlb2m:     New(Config{Entries: 32, Ways: 4, Latency: 1, PageBits: 21}),
		stlb:       New(Config{Entries: 1536, Ways: 12, Latency: 12, PageBits: 12}),
		walker:     walker,
		WalkLevels: 4,
		counters:   stats.NewFixed("l1_hit", "l2_hit", "walk"),
	}
}

// Counters exposes hit/miss/walk statistics.
func (m *MMU) Counters() *stats.Counters { return m.counters }

// Translate returns the address-translation latency for vaddr. huge selects
// the 2 MiB page path. On an L1 and L2 TLB miss the walker is invoked for
// each page-table level, and those accesses hit DRAM.
//
//impact:hotpath
func (m *MMU) Translate(now int64, vaddr uint64, huge bool) int64 {
	l1 := m.dtlb4k
	if huge {
		l1 = m.dtlb2m
	}
	if l1.Lookup(vaddr) {
		m.counters.Add(CounterL1Hit, 1)
		return l1.Latency()
	}
	lat := l1.Latency()
	if m.stlb.Lookup(vaddr) {
		m.counters.Add(CounterL2Hit, 1)
		return lat + m.stlb.Latency()
	}
	lat += m.stlb.Latency()
	m.counters.Add(CounterWalk, 1)
	if m.walker != nil {
		for level := 0; level < m.WalkLevels; level++ {
			lat += m.walker(now+lat, level, vaddr)
		}
	}
	return lat
}

// FlushAll empties all TLB levels.
func (m *MMU) FlushAll() {
	m.dtlb4k.FlushAll()
	m.dtlb2m.FlushAll()
	m.stlb.FlushAll()
}

// Reset returns the MMU to its just-constructed state: every TLB level
// cleared with LRU ticks restarted, and all counters zeroed. The walker is
// retained — it closes over the owning machine's memory system, which the
// machine resets itself.
func (m *MMU) Reset() {
	m.dtlb4k.Reset()
	m.dtlb2m.Reset()
	m.stlb.Reset()
	m.counters.Reset()
}
