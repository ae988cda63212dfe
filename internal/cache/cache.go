// Package cache models the processor-side cache hierarchy that main-memory
// timing attacks must bypass: set-associative caches with LRU and SRRIP
// replacement, clflush semantics, eviction-set construction, and the
// IP-stride and streamer prefetchers the paper simulates as noise sources.
package cache

import (
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

type line struct {
	tag uint64
	// lastUse orders LRU; rrpv drives SRRIP.
	lastUse int64
	// epoch stamps the Cache.epoch the line was filled in. A line is valid
	// iff its epoch equals the cache's current epoch, so Reset invalidates
	// every line by bumping one counter instead of clearing megabytes of
	// line metadata. The zero epoch is never current (caches start at 1),
	// which keeps `line{}` meaning "invalid" for Invalidate/FlushAll.
	epoch uint32
	dirty bool
	rrpv  uint8
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

// Cache is one set-associative cache level.
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
	// direct marks a direct-mapped (1-way) geometry, whose miss path can
	// skip victim selection (the probe is already a single tag compare).
	direct bool
	// lines holds every set's ways back to back: way w of set s is
	// lines[s*Ways+w]. One slice per level keeps a build to one
	// allocation however many sets the geometry has.
	lines    []line
	next     Level
	counters *stats.Counters
	tick     int64  // logical use counter for LRU ordering
	epoch    uint32 // current validity epoch; lines match it or are invalid
	onEvict  func(addr uint64)
}

// New builds a cache level backed by next. Geometry must be power-of-two.
func New(cfg Config, next Level) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive ways %d", cfg.Name, cfg.Ways)
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
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: lineBits,
		setShift: setShift,
		tagShift: lineBits + setShift,
		setMask:  uint64(sets - 1),
		direct:   cfg.Ways == 1,
		lines:    make([]line, numLines),
		next:     next,
		counters: newCounters(),
		epoch:    1,
	}, nil
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

// set returns the ways of set s. The slice's capacity ends at the set's
// last way, so no write through it can reach the next set.
//
//impact:hotpath
func (c *Cache) set(s int) []line {
	lo := s * c.cfg.Ways
	hi := lo + c.cfg.Ways
	return c.lines[lo:hi:hi]
}

// Access serves a load or store, returning its latency.
//
//impact:hotpath
func (c *Cache) Access(now int64, addr uint64, write bool) int64 {
	c.tick++
	set := c.SetIndex(addr)
	tag := c.tagOf(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].epoch == c.epoch && ways[i].tag == tag {
			c.counters.Add(CounterHit, 1)
			c.touch(&ways[i])
			if write {
				ways[i].dirty = true
			}
			return c.cfg.Latency
		}
	}
	c.counters.Add(CounterMiss, 1)
	// Miss: probe cost, fill from next level, insert.
	fill := c.next.Access(now+c.cfg.Latency, addr, false)
	// Direct-mapped fast path: the probe above was a single compare, and
	// the victim is always way 0 — skip victim selection entirely.
	victim := 0
	if !c.direct {
		victim = c.selectVictim(ways)
	}
	if ways[victim].epoch == c.epoch {
		wbAddr := c.reconstruct(ways[victim].tag, set)
		if ways[victim].dirty {
			c.counters.Add(CounterWriteback, 1)
			// Writebacks happen off the critical path but still disturb
			// DRAM state; model the access without charging the requester.
			c.next.Access(now+c.cfg.Latency, wbAddr, true)
		}
		if c.onEvict != nil {
			// Inclusive-hierarchy back-invalidation: dropping a line
			// from this level removes it from the levels above, which
			// is what makes eviction-set attacks on the LLC work.
			c.onEvict(wbAddr)
		}
	}
	ways[victim] = line{tag: tag, epoch: c.epoch, dirty: write, lastUse: c.tick, rrpv: srripMax - 1}
	return c.cfg.Latency + fill
}

// touch updates replacement metadata on a hit.
//
//impact:hotpath
func (c *Cache) touch(l *line) {
	l.lastUse = c.tick
	l.rrpv = 0
}

// selectVictim picks the way to evict in a full set.
//
//impact:hotpath
func (c *Cache) selectVictim(ways []line) int {
	for i := range ways {
		if ways[i].epoch != c.epoch {
			return i
		}
	}
	switch c.cfg.Policy {
	case PolicySRRIP:
		for {
			for i := range ways {
				if ways[i].rrpv >= srripMax {
					return i
				}
			}
			for i := range ways {
				ways[i].rrpv++
			}
		}
	default: // LRU
		victim := 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lastUse < ways[victim].lastUse {
				victim = i
			}
		}
		return victim
	}
}

// reconstruct rebuilds a line-aligned address from tag and set.
//
//impact:hotpath
func (c *Cache) reconstruct(tag uint64, set int) uint64 {
	return (tag<<c.setShift | uint64(set)) << c.lineBits
}

// SetEvictHook installs a callback invoked with the address of every line
// this cache evicts, enabling inclusive back-invalidation of upper levels.
func (c *Cache) SetEvictHook(hook func(addr uint64)) {
	c.onEvict = hook
}

// Contains reports whether addr is currently cached at this level.
func (c *Cache) Contains(addr uint64) bool {
	set := c.SetIndex(addr)
	tag := c.tagOf(addr)
	for _, l := range c.set(set) {
		if l.epoch == c.epoch && l.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate drops addr from this level, returning whether it was present
// and whether the dropped line was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.SetIndex(addr)
	tag := c.tagOf(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].epoch == c.epoch && ways[i].tag == tag {
			present, dirty = true, ways[i].dirty
			ways[i] = line{}
			return present, dirty
		}
	}
	return false, false
}

// FlushAll invalidates every line (used between experiments).
func (c *Cache) FlushAll() {
	clear(c.lines)
}

// Reset returns the cache to its just-constructed state in O(1): bumping
// the validity epoch invalidates every line without touching megabytes of
// line metadata (an 8 MiB LLC holds 128k lines), and the tick and counters
// restart from zero so a pooled machine replays accesses exactly like a
// fresh one. On the (4-billion-reset) epoch wraparound the lines really
// are cleared, so stale stamps can never alias back to validity.
func (c *Cache) Reset() {
	c.epoch++
	if c.epoch == 0 {
		c.FlushAll()
		c.epoch = 1
	}
	c.tick = 0
	c.counters.Reset()
}

// Reconfigure resets the cache under a new configuration, reusing the line
// arrays. Reuse requires the geometry — size, ways, line size — to be
// unchanged (latency, policy, and name may differ freely); Reconfigure
// reports whether it was possible and leaves the cache untouched when not.
func (c *Cache) Reconfigure(cfg Config) bool {
	if cfg.SizeBytes != c.cfg.SizeBytes || cfg.Ways != c.cfg.Ways || cfg.LineBytes != c.cfg.LineBytes {
		return false
	}
	c.cfg = cfg
	c.Reset()
	return true
}
