package cache

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// fixedMem is a test backend with a constant latency that records accesses.
type fixedMem struct {
	latency  int64
	accesses []uint64
	writes   []uint64
}

var _ Level = (*fixedMem)(nil)

func (m *fixedMem) Access(_ int64, addr uint64, write bool) int64 {
	if write {
		m.writes = append(m.writes, addr)
	} else {
		m.accesses = append(m.accesses, addr)
	}
	return m.latency
}

func smallCache(t *testing.T, policy ReplacementPolicy, next Level) *Cache {
	t.Helper()
	c, err := New(Config{
		Name: "test", SizeBytes: 4096, Ways: 4, LineBytes: 64, Latency: 10, Policy: policy,
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheGeometryValidation(t *testing.T) {
	next := &fixedMem{latency: 100}
	bad := []Config{
		{Name: "badline", SizeBytes: 4096, Ways: 4, LineBytes: 48, Latency: 1},
		{Name: "badways", SizeBytes: 4096, Ways: 0, LineBytes: 64, Latency: 1},
		{Name: "badsets", SizeBytes: 4096 + 64, Ways: 4, LineBytes: 64, Latency: 1},
		// One set of 1-byte lines: the tag is the whole address, and the
		// all-ones address's key would read as an invalid way.
		{Name: "noindex", SizeBytes: 8, Ways: 8, LineBytes: 1, Latency: 1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, next); err == nil {
			t.Errorf("config %q accepted", cfg.Name)
		}
	}
}

func TestCacheMissThenHit(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	if lat := c.Access(0, 0x1000, false); lat != 110 {
		t.Fatalf("miss latency = %d, want 110 (lookup + fill)", lat)
	}
	if lat := c.Access(0, 0x1000, false); lat != 10 {
		t.Fatalf("hit latency = %d, want 10", lat)
	}
	if !c.Contains(0x1000) {
		t.Fatal("line not cached after fill")
	}
	if got := c.Counters().Get("hit"); got != 1 {
		t.Fatalf("hit counter = %d, want 1", got)
	}
}

func TestCacheSameLineDifferentOffsets(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	c.Access(0, 0x1000, false)
	if lat := c.Access(0, 0x1030, false); lat != 10 {
		t.Fatalf("same-line access latency = %d, want hit", lat)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next) // 16 sets, 4 ways
	stride := uint64(c.Sets()) << c.LineBits()
	// Fill one set with 4 distinct tags, then touch the first again so
	// the second becomes LRU, then insert a fifth.
	for i := uint64(0); i < 4; i++ {
		c.Access(0, i*stride, false)
	}
	c.Access(0, 0, false) // refresh tag 0
	c.Access(0, 4*stride, false)
	if c.Contains(1 * stride) {
		t.Fatal("LRU victim (tag 1) still present")
	}
	if !c.Contains(0) {
		t.Fatal("recently used tag 0 evicted")
	}
}

func TestCacheSRRIPEvictsNonReused(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicySRRIP, next)
	stride := uint64(c.Sets()) << c.LineBits()
	for i := uint64(0); i < 4; i++ {
		c.Access(0, i*stride, false)
	}
	// Promote tag 0 to RRPV 0; a new insertion must not victimize it.
	c.Access(0, 0, false)
	c.Access(0, 4*stride, false)
	if !c.Contains(0) {
		t.Fatal("SRRIP evicted the re-referenced line")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	stride := uint64(c.Sets()) << c.LineBits()
	c.Access(0, 0, true) // dirty line
	for i := uint64(1); i <= 4; i++ {
		c.Access(0, i*stride, false)
	}
	if len(next.writes) != 1 {
		t.Fatalf("writebacks = %d, want 1", len(next.writes))
	}
	if got := c.Counters().Get("writeback"); got != 1 {
		t.Fatalf("writeback counter = %d, want 1", got)
	}
}

func TestCacheInvalidate(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	c.Access(0, 0x2000, true)
	present, dirty := c.Invalidate(0x2000)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(0x2000) {
		t.Fatal("line still present after Invalidate")
	}
	present, _ = c.Invalidate(0x2000)
	if present {
		t.Fatal("second Invalidate reported present")
	}
}

func TestCacheEvictHook(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	var evicted []uint64
	c.SetEvictHook(func(addr uint64, _ uint8) { evicted = append(evicted, addr) })
	stride := uint64(c.Sets()) << c.LineBits()
	for i := uint64(0); i <= 4; i++ {
		c.Access(0, i*stride, false)
	}
	if len(evicted) != 1 {
		t.Fatalf("evict hook fired %d times, want 1", len(evicted))
	}
	if evicted[0] != 0 {
		t.Fatalf("evicted address = %#x, want 0 (the LRU line)", evicted[0])
	}
}

func TestCacheFlushAll(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	c.Access(0, 0x3000, false)
	c.FlushAll()
	if c.Contains(0x3000) {
		t.Fatal("line survived FlushAll")
	}
}

// TestReconstructRoundTrip is the regression test for the precomputed
// set/tag shift constants: a writeback address rebuilt from (tag, set) must
// be the line-aligned original and must map back to the same set and tag.
func TestReconstructRoundTrip(t *testing.T) {
	geoms := []Config{
		{Name: "l1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 4, Policy: PolicyLRU},
		{Name: "direct", SizeBytes: 16 << 10, Ways: 1, LineBytes: 64, Latency: 4, Policy: PolicyLRU},
		{Name: "llc", SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, Latency: 42, Policy: PolicySRRIP},
		{Name: "one-set", SizeBytes: 512, Ways: 8, LineBytes: 64, Latency: 2, Policy: PolicyLRU},
		{Name: "bigline", SizeBytes: 64 << 10, Ways: 4, LineBytes: 256, Latency: 8, Policy: PolicyLRU},
	}
	addrs := []uint64{0, 0x40, 0x1000, 0xdeadbeef40, 1<<40 | 0x1234c0, ^uint64(0)}
	for _, cfg := range geoms {
		c, err := New(cfg, &fixedMem{latency: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range addrs {
			aligned := addr &^ (uint64(cfg.LineBytes) - 1)
			set := c.SetIndex(addr)
			tag := c.tagOf(addr)
			re := c.reconstruct(tag, set)
			if re != aligned {
				t.Errorf("%s: reconstruct(tagOf(%#x), SetIndex) = %#x, want %#x", cfg.Name, addr, re, aligned)
			}
			if got := c.SetIndex(re); got != set {
				t.Errorf("%s: SetIndex(reconstructed %#x) = %d, want %d", cfg.Name, re, got, set)
			}
			if got := c.tagOf(re); got != tag {
				t.Errorf("%s: tagOf(reconstructed %#x) = %#x, want %#x", cfg.Name, re, got, tag)
			}
		}
	}
}

// TestDirectMappedFastPath exercises the 1-way probe path: hit, conflict
// eviction with dirty writeback, and back-invalidation hook.
func TestDirectMappedFastPath(t *testing.T) {
	next := &fixedMem{latency: 100}
	c, err := New(Config{
		Name: "dm", SizeBytes: 4096, Ways: 1, LineBytes: 64, Latency: 10, Policy: PolicyLRU,
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	var evicted []uint64
	c.SetEvictHook(func(addr uint64, _ uint8) { evicted = append(evicted, addr) })
	stride := uint64(c.Sets()) << c.LineBits()
	if lat := c.Access(0, 0, true); lat != 110 {
		t.Fatalf("cold miss latency = %d, want 110", lat)
	}
	if lat := c.Access(1, 0, false); lat != 10 {
		t.Fatalf("hit latency = %d, want 10", lat)
	}
	// Same set, different tag: must evict line 0 and write it back dirty.
	c.Access(2, stride, false)
	if c.Contains(0) || !c.Contains(stride) {
		t.Fatal("direct-mapped conflict did not replace the resident line")
	}
	if len(next.writes) != 1 || next.writes[0] != 0 {
		t.Fatalf("writebacks = %#v, want [0]", next.writes)
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evict hook = %#v, want [0]", evicted)
	}
	if hits := c.Counters().Value(CounterHit); hits != 1 {
		t.Fatalf("hit counter = %d, want 1", hits)
	}
	if misses := c.Counters().Value(CounterMiss); misses != 2 {
		t.Fatalf("miss counter = %d, want 2", misses)
	}
}

// TestAccessHitPathNoAllocs asserts the per-access fast path is
// allocation-free, for direct-mapped, narrow and fingerprinted wide
// geometries.
func TestAccessHitPathNoAllocs(t *testing.T) {
	for _, ways := range []int{1, 8, 128} {
		c, err := New(Config{
			Name: "hot", SizeBytes: 32 << 10, Ways: ways, LineBytes: 64, Latency: 4, Policy: PolicyLRU,
		}, &fixedMem{latency: 100})
		if err != nil {
			t.Fatal(err)
		}
		c.Access(0, 0x1000, false)
		now := int64(0)
		if avg := testing.AllocsPerRun(1000, func() {
			now++
			c.Access(now, 0x1000, false)
		}); avg != 0 {
			t.Errorf("ways=%d: hit path allocates %v allocs/op, want 0", ways, avg)
		}
	}
}

// refCache is the reference model of Cache: the array of line structs it
// replaced, each line stamped with the epoch it was filled in, where a
// lookup compares both and a miss rescans the set for a victim after the
// fill. Its geometry is copied from a Cache that New accepted.
type refCache struct {
	cfg      Config
	lineBits uint
	setShift uint
	tagShift uint
	setMask  uint64
	lines    []refLine
	next     Level
	counters *stats.Counters
	tick     int64
	epoch    uint32
	onEvict  func(addr uint64)
}

type refLine struct {
	tag     uint64
	lastUse int64
	epoch   uint32
	dirty   bool
	rrpv    uint8
}

func newRefCache(c *Cache, next Level) *refCache {
	return &refCache{
		cfg: c.cfg, lineBits: c.lineBits, setShift: c.setShift, tagShift: c.tagShift, setMask: c.setMask,
		lines: make([]refLine, c.sets*c.cfg.Ways), next: next, counters: newCounters(), epoch: 1,
	}
}

func (r *refCache) set(addr uint64) (int, []refLine) {
	s := int((addr >> r.lineBits) & r.setMask)
	lo := s * r.cfg.Ways
	return s, r.lines[lo : lo+r.cfg.Ways]
}

func (r *refCache) Access(now int64, addr uint64, write bool) int64 {
	r.tick++
	set, ways := r.set(addr)
	tag := addr >> r.tagShift
	for i := range ways {
		if ways[i].epoch == r.epoch && ways[i].tag == tag {
			r.counters.Add(CounterHit, 1)
			ways[i].lastUse, ways[i].rrpv = r.tick, 0
			if write {
				ways[i].dirty = true
			}
			return r.cfg.Latency
		}
	}
	r.counters.Add(CounterMiss, 1)
	fill := r.next.Access(now+r.cfg.Latency, addr, false)
	victim := 0
	if r.cfg.Ways != 1 {
		victim = r.selectVictim(ways)
	}
	if ways[victim].epoch == r.epoch {
		wbAddr := (ways[victim].tag<<r.setShift | uint64(set)) << r.lineBits
		if ways[victim].dirty {
			r.counters.Add(CounterWriteback, 1)
			r.next.Access(now+r.cfg.Latency, wbAddr, true)
		}
		if r.onEvict != nil {
			r.onEvict(wbAddr)
		}
	}
	ways[victim] = refLine{tag: tag, epoch: r.epoch, dirty: write, lastUse: r.tick, rrpv: srripMax - 1}
	return r.cfg.Latency + fill
}

func (r *refCache) selectVictim(ways []refLine) int {
	for i := range ways {
		if ways[i].epoch != r.epoch {
			return i
		}
	}
	if r.cfg.Policy == PolicySRRIP {
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
	}
	victim := 0
	for i := 1; i < len(ways); i++ {
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	return victim
}

func (r *refCache) Contains(addr uint64) bool {
	_, ways := r.set(addr)
	for _, l := range ways {
		if l.epoch == r.epoch && l.tag == addr>>r.tagShift {
			return true
		}
	}
	return false
}

func (r *refCache) Invalidate(addr uint64) (present, dirty bool) {
	_, ways := r.set(addr)
	for i := range ways {
		if ways[i].epoch == r.epoch && ways[i].tag == addr>>r.tagShift {
			present, dirty = true, ways[i].dirty
			ways[i] = refLine{}
			return present, dirty
		}
	}
	return false, false
}

func (r *refCache) FlushAll() { clear(r.lines) }

func (r *refCache) Reset() {
	r.epoch++
	if r.epoch == 0 {
		r.FlushAll()
		r.epoch = 1
	}
	r.tick = 0
	r.counters.Reset()
}

func (r *refCache) Reconfigure(cfg Config) bool {
	if cfg.SizeBytes != r.cfg.SizeBytes || cfg.Ways != r.cfg.Ways || cfg.LineBytes != r.cfg.LineBytes {
		return false
	}
	r.cfg = cfg
	r.Reset()
	return true
}

// refAccess is one request a cache level sent to the level below it.
type refAccess struct {
	now   int64
	addr  uint64
	write bool
}

// recLevel is the level below a cache under comparison. It logs every
// request and answers with a latency that depends on the address. Some
// reads drop a line of the pool from the cache above while its fill is in
// flight, as an inclusive LLC's back-invalidation does, so a miss must
// look for a free way after the fill, as the reference's victim scan does.
type recLevel struct {
	log  []refAccess
	pool *[]uint64
	drop func(addr uint64) (present, dirty bool)
}

func (l *recLevel) Access(now int64, addr uint64, write bool) int64 {
	l.log = append(l.log, refAccess{now, addr, write})
	line := addr >> 6
	if !write && line%3 == 0 {
		pool := *l.pool
		l.drop(pool[int(line/3%uint64(len(pool)))])
	}
	return 100 + int64(line%13)
}

// sameSet compares the ways of the set addr maps to: the same ways valid,
// each holding the same tag, dirty bit, RRPV and LRU stamp, and a wide
// cache's fingerprints matching its keys.
func sameSet(c *Cache, r *refCache, addr uint64) error {
	set := c.SetIndex(addr)
	lo := set * c.cfg.Ways
	current := c.stamps[set] == uint64(c.epoch)
	for w := 0; w < c.cfg.Ways; w++ {
		i := lo + w
		want := r.lines[i]
		valid := current && c.keys[i] != 0
		if valid != (want.epoch == r.epoch) {
			return fmt.Errorf("set %d way %d: valid %v, reference %v", set, w, valid, !valid)
		}
		if current && c.fp != nil {
			if f := c.fp[i]; (valid && f != fingerprint(c.keys[i])) || (!valid && f != 0) {
				return fmt.Errorf("set %d way %d: fingerprint %d for key %#x", set, w, f, c.keys[i])
			}
		}
		if !valid {
			continue
		}
		got := refLine{tag: c.keys[i] - 1, lastUse: int64(c.lastUse[i]), epoch: want.epoch, dirty: c.dirty[i] != 0, rrpv: c.rrpv[i]}
		if got != want {
			return fmt.Errorf("set %d way %d: %+v, reference %+v", set, w, got, want)
		}
	}
	return nil
}

// TestCacheMatchesReference drives Cache and the line-array reference
// model with the same seeded calls — reads and writes, Invalidate,
// Contains, FlushAll, Reset and Reconfigure, which also flips the policy
// or asks for another geometry — and requires the same latencies, query
// results and counters at every step, the same requests to the level
// below, the same evict-hook calls and the same ways in the touched set.
// Every 1,000 steps the address pool moves between below, at and above
// one set's ways. Half its tags are consecutive, as in an eviction set,
// and half random, so a wide set's fingerprints collide. Until a quarter
// of the way in nothing flushes, so every set is stamped with epoch 1;
// then both epochs jump to just below the uint32 wraparound and two
// resets carry them across it, back to epoch 1.
func TestCacheMatchesReference(t *testing.T) {
	const steps, sets = 12_000, 8
	for _, ways := range []int{1, 2, 4, 8, 12, 16, 32, 128} {
		for _, policy := range []ReplacementPolicy{PolicyLRU, PolicySRRIP} {
			cfg := Config{Name: "ref", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, Latency: 7, Policy: policy}
			var pool []uint64
			below, ref := &recLevel{pool: &pool}, &recLevel{pool: &pool}
			c, err := New(cfg, below)
			if err != nil {
				t.Fatal(err)
			}
			r := newRefCache(c, ref)
			below.drop, ref.drop = c.Invalidate, r.Invalidate
			var evicted, refEvicted []uint64
			c.SetEvictHook(func(addr uint64, _ uint8) { evicted = append(evicted, addr) })
			r.onEvict = func(addr uint64) { refEvicted = append(refEvicted, addr) }

			rng := stats.NewRNG(uint64(ways)<<4 | uint64(policy))
			perSet := []int{max(ways/2, 1), ways, ways + ways/2 + 1}
			var hits, dirtyDrops, flips int
			for i := 0; i < steps; i++ {
				if i%1_000 == 0 {
					pool = pool[:0]
					n := perSet[i/1_000%len(perSet)]
					for s := 0; s < sets; s++ {
						base := rng.Uint64() >> c.tagShift
						for k := 0; k < n; k++ {
							tag := rng.Uint64() >> c.tagShift
							if k%2 == 1 {
								tag = (base + uint64(k)) & (^uint64(0) >> c.tagShift)
							}
							pool = append(pool, (tag<<c.setShift|uint64(s))<<c.lineBits|uint64(rng.Intn(64)))
						}
					}
					pool = append(pool, ^uint64(0))
				}
				setup := i < steps/4
				if i == steps/4 {
					c.epoch, r.epoch = math.MaxUint32-1, math.MaxUint32-1
					for range 2 {
						c.Reset()
						r.Reset()
					}
				}
				addr := pool[rng.Intn(len(pool))]
				var what string
				switch op := rng.Intn(1000); {
				case op < 800:
					write := rng.Intn(3) == 0
					got, want := c.Access(int64(i), addr, write), r.Access(int64(i), addr, write)
					what = fmt.Sprintf("Access(%#x, write %v) = %d, reference %d", addr, write, got, want)
					if got != want {
						t.Fatalf("ways %d %v step %d: %s", ways, policy, i, what)
					}
					if got == cfg.Latency {
						hits++
					}
				case op < 900:
					p, d := c.Invalidate(addr)
					wp, wd := r.Invalidate(addr)
					what = fmt.Sprintf("Invalidate(%#x) = %v %v, reference %v %v", addr, p, d, wp, wd)
					if p != wp || d != wd {
						t.Fatalf("ways %d %v step %d: %s", ways, policy, i, what)
					}
					if d {
						dirtyDrops++
					}
				case op < 990:
					got, want := c.Contains(addr), r.Contains(addr)
					what = fmt.Sprintf("Contains(%#x) = %v, reference %v", addr, got, want)
					if got != want {
						t.Fatalf("ways %d %v step %d: %s", ways, policy, i, what)
					}
				case setup:
				case op < 994:
					what = "FlushAll"
					c.FlushAll()
					r.FlushAll()
				case op < 997:
					what = "Reset"
					c.Reset()
					r.Reset()
				default:
					next := cfg
					next.Latency = int64(1 + rng.Intn(20))
					if rng.Intn(2) == 0 {
						next.Policy = PolicyLRU + PolicySRRIP - c.cfg.Policy
						flips++
					}
					if rng.Intn(4) == 0 {
						next.SizeBytes *= 2
					}
					got, want := c.Reconfigure(next), r.Reconfigure(next)
					what = fmt.Sprintf("Reconfigure(%+v) = %v, reference %v", next, got, want)
					if got != want {
						t.Fatalf("ways %d %v step %d: %s", ways, policy, i, what)
					}
				}
				for _, id := range []stats.CounterID{CounterHit, CounterMiss, CounterWriteback} {
					if got, want := c.Counters().Value(id), r.counters.Value(id); got != want {
						t.Fatalf("ways %d %v step %d after %s: counter %d = %d, reference %d", ways, policy, i, what, id, got, want)
					}
				}
				if !slices.Equal(below.log, ref.log) {
					t.Fatalf("ways %d %v step %d after %s: requests below\n%v\nreference\n%v", ways, policy, i, what, below.log, ref.log)
				}
				if !slices.Equal(evicted, refEvicted) {
					t.Fatalf("ways %d %v step %d after %s: evictions %#x, reference %#x", ways, policy, i, what, evicted, refEvicted)
				}
				if err := sameSet(c, r, addr); err != nil {
					t.Fatalf("ways %d %v step %d after %s: %v", ways, policy, i, what, err)
				}
				below.log, ref.log, evicted, refEvicted = below.log[:0], ref.log[:0], evicted[:0], refEvicted[:0]
			}
			if hits == 0 || dirtyDrops == 0 || flips == 0 {
				t.Fatalf("ways %d %v: the stream missed a branch: %d hits, %d dirty invalidations, %d policy flips", ways, policy, hits, dirtyDrops, flips)
			}
		}
	}
}
