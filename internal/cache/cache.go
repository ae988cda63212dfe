// Package cache models the processor-side cache hierarchy that main-memory
// timing attacks must bypass: set-associative caches with LRU and SRRIP
// replacement, clflush semantics, eviction-set construction, and the
// IP-stride and streamer prefetchers the paper simulates as noise sources.
package cache

import (
	"bytes"
	"fmt"

	"repro/internal/stats"
)

// Level is anything that can serve a memory access: another cache or the
// memory backend. Access returns the end-to-end latency of serving addr
// starting at cycle now.
type Level interface {
	Access(now int64, addr uint64, write bool) int64
}

// ReplacementPolicy selects the victim-selection algorithm.
type ReplacementPolicy int

const (
	// PolicyLRU evicts the least recently used way.
	PolicyLRU ReplacementPolicy = iota + 1
	// PolicySRRIP implements static re-reference interval prediction
	// (the paper's L2/L3 policy, Jaleel et al.).
	PolicySRRIP
)

// String implements fmt.Stringer.
func (p ReplacementPolicy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicySRRIP:
		return "srrip"
	default:
		return "unknown"
	}
}

const srripMax = 3 // 2-bit RRPV

// Fixed counter IDs for the per-level statistics, in the slot order passed
// to stats.NewFixed below. The hot path increments these by index; the
// string names remain visible through the Counters export API.
const (
	CounterHit stats.CounterID = iota
	CounterMiss
	CounterWriteback
)

func newCounters() *stats.Counters {
	return stats.NewFixed("hit", "miss", "writeback")
}

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	// Latency is the lookup latency in cycles (hit cost, and the tag
	// probe cost paid on the way to a miss).
	Latency int64
	Policy  ReplacementPolicy
}

// narrowWays is the widest set a lookup scans by key alone. A wider set
// keeps a one-byte fingerprint per way, and a lookup scans those first
// with bytes.IndexByte, so it compares keys only where the fingerprints
// match. Measured per width (docs/benchmark.md), keys alone are faster up
// to 16 ways (the L1, the L2 and the default LLC), and fingerprints from
// 32 ways up (Figure 3 widens the LLC to 128).
const narrowWays = 16

// Cache is one set-associative cache level. Its ways live in per-way
// arrays, way w of set s at index s*Ways+w of each.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	// setShift is log2(sets) and tagShift is lineBits+setShift, both fixed
	// at construction so tag extraction and writeback-address
	// reconstruction are single shifts instead of per-access loops.
	setShift uint
	tagShift uint
	setMask  uint64
	// keys holds tag+1 for each valid way and 0 for an invalid one, and
	// lastUse orders LRU. Both are carved from one array with stamps.
	keys    []uint64
	lastUse []uint64
	// rrpv drives SRRIP and dirty is 1 for a line to write back. cores
	// holds the CoreBit of every core whose private levels may hold the
	// way's line (see port). fp, only for sets wider than narrowWays,
	// holds fingerprint(key) for each valid way and 0 for an invalid one.
	// All four are carved from one array. A way's lastUse, rrpv, dirty
	// and cores are written when it fills, so an invalid way's are never
	// read.
	rrpv  []uint8
	dirty []uint8
	cores []uint8
	fp    []uint8
	// stamps holds the epoch each set was last touched in. A set whose
	// stamp is not the current epoch holds no valid line, whatever its
	// keys say, and the next miss in it clears it first. So FlushAll and
	// Reset invalidate every line by bumping epoch. Caches start at epoch
	// 1 with every stamp 0. The stamps are uint64 only to share the keys'
	// array.
	stamps   []uint64
	epoch    uint32
	next     Level
	counters *stats.Counters
	tick     uint64 // logical use counter for LRU ordering
	onEvict  func(addr uint64, cores uint8)
	// untracked holds the CoreBit of every core that may hold, in its
	// private levels, a line this cache dropped without a
	// back-invalidation (Invalidate, FlushAll, Reset). Every eviction
	// back-invalidates those cores too, until ClearUntracked.
	untracked uint8
}

// allCores is the core set of a line any core may hold.
const allCores = 0xff

// CoreBit is core's bit in a core set. Cores share a bit modulo 8; a set
// bit only means "may hold", so back-invalidating every core of the bit
// stays exact.
func CoreBit(core int) uint8 {
	return 1 << (uint(core) % 8)
}

// New builds a cache level backed by next. Geometry must be power-of-two.
func New(cfg Config, next Level) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive ways %d", cfg.Name, cfg.Ways)
	}
	if cfg.Policy != PolicySRRIP && cfg.Ways > 256 {
		// lruWay packs a way index into one byte.
		return nil, fmt.Errorf("cache %s: %d ways exceed LRU's 256", cfg.Name, cfg.Ways)
	}
	numLines := cfg.SizeBytes / cfg.LineBytes
	if numLines <= 0 || numLines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, numLines, cfg.Ways)
	}
	sets := numLines / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	var lineBits uint
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		lineBits++
	}
	setShift := uint(setBits(sets))
	if lineBits+setShift == 0 {
		// The tag would be the whole address, and the all-ones address's
		// key, tag+1, would read as an invalid way.
		return nil, fmt.Errorf("cache %s: one set of 1-byte lines leaves no index bit", cfg.Name)
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: lineBits,
		setShift: setShift,
		tagShift: lineBits + setShift,
		setMask:  uint64(sets - 1),
		epoch:    1,
		next:     next,
		counters: newCounters(),
	}
	n := numLines
	words := make([]uint64, 2*n+sets)
	c.keys, c.lastUse, c.stamps = words[:n:n], words[n:2*n:2*n], words[2*n:]
	meta := 3 * n
	if cfg.Ways > narrowWays {
		meta = 4 * n
	}
	small := make([]uint8, meta)
	c.rrpv, c.dirty, c.cores = small[:n:n], small[n:2*n:2*n], small[2*n:3*n:3*n]
	if cfg.Ways > narrowWays {
		c.fp = small[3*n:]
	}
	return c, nil
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// LineBits returns log2 of the line size.
func (c *Cache) LineBits() uint { return c.lineBits }

// Counters exposes hit/miss/writeback statistics.
func (c *Cache) Counters() *stats.Counters { return c.counters }

// SetIndex returns the set an address maps to.
//
//impact:hotpath
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.lineBits) & c.setMask)
}

//impact:hotpath
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.tagShift
}

func setBits(sets int) int {
	b := 0
	for s := sets; s > 1; s >>= 1 {
		b++
	}
	return b
}

// fingerprint folds a key into the byte a wide set stores beside it. It
// is never 0, which marks an invalid way, and keys that differ by less
// than 255 (consecutive tags, as in an eviction set) never share one.
//
//impact:hotpath
func fingerprint(key uint64) uint8 {
	return uint8(key%255) + 1
}

// Access serves a load or store, returning its latency.
//
//impact:hotpath
func (c *Cache) Access(now int64, addr uint64, write bool) int64 {
	c.tick++
	if c.fp == nil {
		// find's narrow scan, inline: through the call, an L1 hit took
		// 1.2 to 1.35 times as long and Figure 12 1.15 times
		// (docs/benchmark.md).
		set := c.SetIndex(addr)
		if c.stamps[set] == uint64(c.epoch) {
			key := c.tagOf(addr) + 1
			lo := set * c.cfg.Ways
			hi := lo + c.cfg.Ways
			for i, k := range c.keys[lo:hi:hi] {
				if k == key {
					return c.hit(lo+i, write)
				}
			}
		}
		return c.fill(now, addr, write, 0)
	}
	if way := c.find(addr); way >= 0 {
		return c.hit(way, write)
	}
	return c.fill(now, addr, write, 0)
}

// accessFrom serves an access from the private levels of the cores in
// bits, marking them valid on the line it reaches.
//
//impact:hotpath
func (c *Cache) accessFrom(now int64, addr uint64, write bool, bits uint8) int64 {
	c.tick++
	if way := c.find(addr); way >= 0 {
		c.cores[way] |= bits
		return c.hit(way, write)
	}
	return c.fill(now, addr, write, bits)
}

// hit updates the replacement state of the way a lookup found.
//
//impact:hotpath
func (c *Cache) hit(way int, write bool) int64 {
	c.counters.Add(CounterHit, 1)
	c.lastUse[way] = c.tick
	c.rrpv[way] = 0
	if write {
		c.dirty[way] = 1
	}
	return c.cfg.Latency
}

// fill serves a miss: it pays the probe, fetches the line from the next
// level and inserts it, valid for the cores in bits, at the set's first
// free way if it has one, else at the policy's victim. The free way is
// looked for after the fetch, since an inclusive LLC's back-invalidation
// during it can free a way here.
//
//impact:hotpath
func (c *Cache) fill(now int64, addr uint64, write bool, bits uint8) int64 {
	c.counters.Add(CounterMiss, 1)
	set := c.SetIndex(addr)
	key := c.tagOf(addr) + 1
	lo := set * c.cfg.Ways
	hi := lo + c.cfg.Ways
	if c.stamps[set] != uint64(c.epoch) {
		// The set is stale: clear it for this epoch, all of it free.
		c.stamps[set] = uint64(c.epoch)
		clear(c.keys[lo:hi])
		if c.fp != nil {
			clear(c.fp[lo:hi])
		}
	}
	fill := c.next.Access(now+c.cfg.Latency, addr, false)
	victim := c.firstFree(lo, hi)
	if victim < 0 {
		victim = c.selectVictim(lo, hi)
	}
	if old := c.keys[victim]; old != 0 {
		wbAddr := c.reconstruct(old-1, set)
		if c.dirty[victim] != 0 {
			c.counters.Add(CounterWriteback, 1)
			// Writebacks happen off the critical path but still disturb
			// DRAM state; model the access without charging the requester.
			c.next.Access(now+c.cfg.Latency, wbAddr, true)
		}
		if c.onEvict != nil {
			// Inclusive-hierarchy back-invalidation: dropping a line
			// from this level removes it from the levels above, which
			// is what makes eviction-set attacks on the LLC work.
			c.onEvict(wbAddr, c.cores[victim]|c.untracked)
		}
	}
	c.keys[victim] = key
	c.lastUse[victim] = c.tick
	c.rrpv[victim] = srripMax - 1
	c.cores[victim] = bits
	c.dirty[victim] = 0
	if write {
		c.dirty[victim] = 1
	}
	if c.fp != nil {
		c.fp[victim] = fingerprint(key)
	}
	return c.cfg.Latency + fill
}

// find returns the index of the way holding addr, or -1. A set wider than
// narrowWays is scanned by fingerprint with bytes.IndexByte, and its keys
// are compared only where the fingerprints match.
//
//impact:hotpath
func (c *Cache) find(addr uint64) int {
	set := c.SetIndex(addr)
	if c.stamps[set] != uint64(c.epoch) {
		return -1
	}
	key := c.tagOf(addr) + 1
	lo := set * c.cfg.Ways
	hi := lo + c.cfg.Ways
	keys := c.keys[lo:hi:hi]
	if c.fp == nil {
		for i, k := range keys {
			if k == key {
				return lo + i
			}
		}
		return -1
	}
	fp, f := c.fp[lo:hi:hi], fingerprint(key)
	for i := 0; ; i++ {
		j := bytes.IndexByte(fp[i:], f)
		if j < 0 {
			return -1
		}
		i += j
		if keys[i] == key {
			return lo + i
		}
	}
}

// firstFree returns the index of the first free way in the current-epoch
// set [lo, hi), or -1.
//
//impact:hotpath
func (c *Cache) firstFree(lo, hi int) int {
	if c.fp != nil {
		if i := bytes.IndexByte(c.fp[lo:hi:hi], 0); i >= 0 {
			return lo + i
		}
		return -1
	}
	for i, k := range c.keys[lo:hi:hi] {
		if k == 0 {
			return lo + i
		}
	}
	return -1
}

// selectVictim picks the way to evict in the full set [lo, hi). Under
// SRRIP the victim is the first way at the highest RRPV present, and every
// way ages by that RRPV's distance from srripMax: the way and the ages the
// age-and-rescan loop of the policy's definition reaches.
//
//impact:hotpath
func (c *Cache) selectVictim(lo, hi int) int {
	if c.cfg.Policy == PolicySRRIP {
		rrpv := c.rrpv[lo:hi:hi]
		for v := uint8(srripMax); ; v-- {
			i := bytes.IndexByte(rrpv, v)
			if i < 0 {
				continue
			}
			if gap := srripMax - v; gap > 0 {
				for j := range rrpv {
					rrpv[j] += gap
				}
			}
			return lo + i
		}
	}
	return lo + lruWay(c.lastUse[lo:hi:hi])
}

// lruWay returns the way with the oldest stamp in a full LRU set. It
// takes one branch-free min over stamp<<8 | way, which is exact because
// every way of a full set was stamped at its own tick, so no two stamps
// are equal, and New allows an LRU set at most 256 ways, so a way index
// fits in the low byte.
//
//impact:hotpath
func lruWay(lastUse []uint64) int {
	best := lastUse[0] << 8
	for i := 1; i < len(lastUse); i++ {
		best = min(best, lastUse[i]<<8|uint64(i))
	}
	return int(best & 0xff)
}

// reconstruct rebuilds a line-aligned address from tag and set.
//
//impact:hotpath
func (c *Cache) reconstruct(tag uint64, set int) uint64 {
	return (tag<<c.setShift | uint64(set)) << c.lineBits
}

// SetEvictHook installs a callback invoked with the address of every line
// this cache evicts, enabling inclusive back-invalidation of upper levels.
// cores holds the CoreBit of every core whose private levels may hold the
// line: those that reached it through a port, and the untracked ones.
func (c *Cache) SetEvictHook(hook func(addr uint64, cores uint8)) {
	c.onEvict = hook
}

// port connects one core's private levels to a shared cache. Every access
// through it marks the core valid on the line it reaches, so the cache's
// evictions back-invalidate only the cores that may hold the line.
type port struct {
	llc  *Cache
	bits uint8
}

// Access serves an access from the port's core.
//
//impact:hotpath
func (p *port) Access(now int64, addr uint64, write bool) int64 {
	return p.llc.accessFrom(now, addr, write, p.bits)
}

// ClearUntracked empties the untracked core set. Call it only while no
// private level above the cache holds a line, as Machine.Reset does once
// it has reset them.
func (c *Cache) ClearUntracked() {
	c.untracked = 0
}

// Contains reports whether addr is currently cached at this level.
func (c *Cache) Contains(addr uint64) bool {
	return c.find(addr) >= 0
}

// Invalidate drops addr from this level, returning whether it was present
// and whether the dropped line was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	way := c.find(addr)
	if way < 0 {
		return false, false
	}
	c.keys[way] = 0
	if c.fp != nil {
		c.fp[way] = 0
	}
	// The cores' private copies stay, so later evictions must reach them.
	c.untracked |= c.cores[way]
	return true, c.dirty[way] != 0
}

// FlushAll invalidates every line (used between experiments) in O(1), by
// moving to a new epoch: every set's stamp goes stale at once. On the
// (4-billion-flush) epoch wraparound the stamps really are cleared, so a
// stale stamp can never alias back to validity. Any core may still hold
// a dropped line privately, so every core becomes untracked.
func (c *Cache) FlushAll() {
	c.untracked = allCores
	c.epoch++
	if c.epoch == 0 {
		clear(c.stamps)
		c.epoch = 1
	}
}

// Reset returns the cache to its just-constructed state in O(1). It
// flushes every line by moving to a new epoch, as FlushAll does, without
// touching megabytes of per-way arrays (an 8 MiB LLC holds 128k lines):
// each set clears its own ways the next time a miss fills it. The
// tick and counters restart from zero, so a pooled machine replays
// accesses exactly like a fresh one. Every core stays untracked, as after
// FlushAll, until the owner empties the private levels and calls
// ClearUntracked.
func (c *Cache) Reset() {
	c.FlushAll()
	c.tick = 0
	c.counters.Reset()
}

// Reconfigure resets the cache under a new configuration, reusing the
// per-way arrays. Reuse requires the geometry — size, ways, line size — to
// be unchanged (latency, policy, and name may differ freely); Reconfigure
// reports whether it was possible and leaves the cache untouched when not.
func (c *Cache) Reconfigure(cfg Config) bool {
	if cfg.SizeBytes != c.cfg.SizeBytes || cfg.Ways != c.cfg.Ways || cfg.LineBytes != c.cfg.LineBytes {
		return false
	}
	c.cfg = cfg
	c.Reset()
	return true
}
