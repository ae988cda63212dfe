package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/pkg/api"
)

// Fixed counter IDs for cache statistics, in the slot order passed to
// metrics.NewSet in NewCache.
const (
	cacheHits metrics.CounterID = iota
	cacheMisses
	cacheStores
	cacheEvictions
	cacheComputes
	cacheDedups
)

// cacheShards spreads entries over independently locked shards so
// concurrent requests hitting the warm path do not serialize on one mutex.
// Keys are uniformly distributed hex SHA-256 digests, so a small
// power-of-two shard count balances well.
const cacheShards = 16

// maxEntries bounds the whole cache so a long-running server cannot be
// grown without limit by high-cardinality sweeps; each shard holds at most
// maxEntries/cacheShards entries and evicts FIFO (oldest insertion first).
// Evicting never changes any response byte — a re-miss just re-simulates —
// so the bound only trades memory for hit rate.
const (
	maxEntries = 16384
	shardCap   = maxEntries / cacheShards
)

// ResultStore is the durable backend a Cache writes through to. Two
// implementations exist: the pack engine in internal/exp/pack
// (append-only bundles behind a needle index, flat lookup cost at any
// object count) and the cluster store in internal/cluster (a local
// backend plus hash-ring-placed remote peers). Both share the contract
// the cache relies on: Get returns previously Put bytes or reports a
// miss — never a wrong or partial value (corrupt entries are dropped and
// heal by re-simulation) — and Put is best-effort, first write wins.
// The context carries the caller's cancellation, deadline, and request
// ID; purely local backends may ignore it, but a networked backend
// bounds its remote hops with it and propagates the request ID so a
// cross-node lookup chain traces as one request. Implementations must be
// safe for concurrent use.
type ResultStore interface {
	Get(ctx context.Context, key string) (json.RawMessage, bool)
	Put(ctx context.Context, key string, blob json.RawMessage)
}

// localTierStore is implemented by ResultStores that are fronts for a
// cluster: LocalGet and LocalPut bypass any remote hops and touch only
// the node's own durable tier. The server's internal peer endpoints use
// them so one node answering another's fetch can never recurse into a
// third hop, and so an inbound replica copy is stored without being
// re-replicated. Detected structurally — exp never imports
// internal/cluster; the dependency points the other way.
type localTierStore interface {
	LocalGet(ctx context.Context, key string) (json.RawMessage, bool)
	LocalPut(ctx context.Context, key string, blob json.RawMessage)
}

// Cache is a content-addressed result store: keys are the hex SHA-256 of a
// run's canonical JSON document (see Run.Key), values are the marshaled
// report bytes. Since the simulator is deterministic, a key maps to exactly
// one possible value, so entries never need invalidation. Entries are
// sharded by key hash behind per-shard mutexes, and Compute adds
// singleflight-style deduplication so identical in-flight runs — e.g. two
// clients POSTing the same spec concurrently — are simulated exactly once.
//
// A Cache built with NewCacheWithStore is additionally backed by a durable
// ResultStore: memory misses fall through to disk (promoting hits back into
// memory), and every computed report is written through, so a restarted
// server serves previously computed sweeps as cache hits.
//
// Safe for concurrent use; all traffic lands in lock-free metrics.Set
// counter slots that the HTTP service exports on /v1/metrics.
type Cache struct {
	shards [cacheShards]cacheShard
	met    *metrics.Set
	store  ResultStore // nil = memory only

	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// cacheShard is one lock domain: a map plus its FIFO insertion order,
// tracked in a fixed-size ring buffer. A ring (rather than a slice head
// advanced with order = order[1:]) keeps the backing array from churning
// under sustained eviction and lets evicted key strings actually be
// collected instead of staying pinned by the old backing array.
type cacheShard struct {
	mu      sync.Mutex
	entries map[string]json.RawMessage
	order   []string // ring of len shardCap; oldest key at head
	head    int
	n       int
}

// flightCall tracks one in-progress computation; waiters block on done.
type flightCall struct {
	done chan struct{}
	blob json.RawMessage
	err  error
}

// NewCache returns an empty, memory-only cache.
func NewCache() *Cache { return NewCacheWithStore(nil) }

// NewCacheWithStore returns an empty cache layered over a durable disk
// store (nil for memory only): lookups fall through memory → disk, and
// stores write through to disk.
func NewCacheWithStore(st ResultStore) *Cache {
	c := &Cache{
		met:    metrics.NewSet("hits", "misses", "stores", "evictions", "computes", "dedup_hits"),
		store:  st,
		flight: make(map[string]*flightCall),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]json.RawMessage)
		c.shards[i].order = make([]string, shardCap)
	}
	return c
}

// shardFor hashes a key to its shard (FNV-1a; keys are hex digests, so any
// cheap mix distributes them uniformly).
func (c *Cache) shardFor(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%cacheShards]
}

// Get returns the cached report bytes for a key, recording a hit or miss.
// Memory misses fall through to the configured store (disk, or disk plus
// remote peers in a cluster); store hits are promoted back into memory
// and count as cache hits (the store's own counters record the
// memory/disk/remote split). ctx bounds any remote hops the store makes
// and carries the request ID across them. Callers must treat the
// returned bytes as immutable.
func (c *Cache) Get(ctx context.Context, key string) (json.RawMessage, bool) {
	blob, ok := c.lookup(key)
	if !ok && c.store != nil {
		if disk, diskOK := c.store.Get(ctx, key); diskOK {
			blob, ok = disk, true
			// Memory-only insert: the entry is already durable.
			c.add(key, disk)
		}
	}
	if ok {
		c.met.Add(cacheHits, 1)
	} else {
		c.met.Add(cacheMisses, 1)
	}
	return blob, ok
}

// Peek returns the cached bytes for a key without recording a hit or a
// miss, falling through to the store like Get (store hits are still
// promoted into memory). Job streams rebuild their results from the cache
// on replay; that accounting belongs to the sweep that computed the
// reports, not to every later reader.
func (c *Cache) Peek(ctx context.Context, key string) (json.RawMessage, bool) {
	blob, ok := c.lookup(key)
	if !ok && c.store != nil {
		if disk, diskOK := c.store.Get(ctx, key); diskOK {
			blob, ok = disk, true
			c.add(key, disk)
		}
	}
	return blob, ok
}

// PeekLocal returns the cached bytes for a key from this node's own
// tiers only — memory, then the store's local tier — never crossing the
// network, and records no hit/miss accounting. This is the probe behind
// the internal peer-fetch endpoint: node A asking node B must see
// exactly what B holds, not trigger B asking C.
func (c *Cache) PeekLocal(ctx context.Context, key string) (json.RawMessage, bool) {
	if blob, ok := c.lookup(key); ok {
		return blob, true
	}
	switch st := c.store.(type) {
	case localTierStore:
		return st.LocalGet(ctx, key)
	case nil:
		return nil, false
	default:
		return c.store.Get(ctx, key)
	}
}

// PutLocal stores report bytes into this node's own tiers only — memory
// plus the store's local tier — without triggering replication. This is
// the write behind the internal peer replication endpoint: the sender
// already placed the copy by ring position, so the receiver fanning it
// out again would echo forever.
func (c *Cache) PutLocal(ctx context.Context, key string, blob json.RawMessage) {
	if !c.add(key, blob) {
		return
	}
	switch st := c.store.(type) {
	case localTierStore:
		st.LocalPut(ctx, key, blob)
	case nil:
	default:
		c.store.Put(ctx, key, blob)
	}
}

// lookup probes a shard without touching the hit/miss counters (Compute's
// double-check path must not distort per-request accounting).
func (c *Cache) lookup(key string) (json.RawMessage, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	blob, ok := sh.entries[key]
	sh.mu.Unlock()
	return blob, ok
}

// Put stores report bytes under a key, writing through to the disk store
// when one is configured. First store wins: with a deterministic simulator
// any concurrent second computation produced the same bytes, so keeping
// the existing entry preserves pointer stability.
func (c *Cache) Put(ctx context.Context, key string, blob json.RawMessage) {
	if !c.add(key, blob) {
		return
	}
	if c.store != nil {
		c.store.Put(ctx, key, blob)
	}
}

// add inserts into the in-memory tier only, evicting the shard's oldest
// entries to stay within shardCap, and reports whether the key was new.
// Steady-state eviction is allocation-free: the ring slot is overwritten
// in place and the evicted key string is released.
func (c *Cache) add(key string, blob json.RawMessage) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[key]; ok {
		return false
	}
	for sh.n >= shardCap {
		delete(sh.entries, sh.order[sh.head])
		sh.order[sh.head] = ""
		sh.head = (sh.head + 1) % shardCap
		sh.n--
		c.met.Add(cacheEvictions, 1)
	}
	sh.entries[key] = blob
	sh.order[(sh.head+sh.n)%shardCap] = key
	sh.n++
	c.met.Add(cacheStores, 1)
	return true
}

// Compute returns the report for a key, running fn to produce it if no
// other goroutine already is: concurrent callers for one key coalesce onto
// a single computation (singleflight), and with a deterministic simulator
// every caller receives the same bytes either way. On error nothing is
// cached and every coalesced caller gets the error; a later retry
// recomputes. Callers are expected to have already probed Get (Compute
// itself never records hits or misses, only computes and dedup_hits).
// ctx rides into the write-through Put, bounding a clustered store's
// replication enqueue the same way Get bounds its fetches.
func (c *Cache) Compute(ctx context.Context, key string, fn func() (json.RawMessage, error)) (json.RawMessage, error) {
	c.flightMu.Lock()
	if call, ok := c.flight[key]; ok {
		c.flightMu.Unlock()
		<-call.done
		if call.err == nil {
			c.met.Add(cacheDedups, 1)
		}
		return call.blob, call.err
	}
	// No computation in flight; one may have finished between the caller's
	// miss and now, in which case its stored bytes are authoritative.
	if blob, ok := c.lookup(key); ok {
		c.flightMu.Unlock()
		return blob, nil
	}
	call := &flightCall{done: make(chan struct{})}
	c.flight[key] = call
	c.flightMu.Unlock()

	// The flight entry must be cleared and done closed even if fn panics —
	// a recovering caller above us must not wedge the key forever, and
	// waiters must see an error rather than a nil report. The panic itself
	// still propagates to the leader.
	defer func() {
		r := recover()
		if r != nil {
			call.err = fmt.Errorf("exp: panic computing run %s: %v", key, r)
		}
		c.flightMu.Lock()
		delete(c.flight, key)
		c.flightMu.Unlock()
		close(call.done)
		if r != nil {
			panic(r)
		}
	}()
	c.met.Add(cacheComputes, 1)
	call.blob, call.err = fn()
	if call.err == nil {
		c.Put(ctx, key, call.blob)
	}
	return call.blob, call.err
}

// Len returns the number of cached reports.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Hits returns the lifetime hit counter.
func (c *Cache) Hits() int64 { return c.met.Value(cacheHits) }

// Misses returns the lifetime miss counter.
func (c *Cache) Misses() int64 { return c.met.Value(cacheMisses) }

// CacheStats is a point-in-time copy of the cache counters, served on
// /healthz and /v1/metrics. The wire shape lives in pkg/api with the
// rest of the v1 contract.
type CacheStats = api.CacheStats

// Stats snapshots all counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries:   int64(c.Len()),
		Hits:      c.met.Value(cacheHits),
		Misses:    c.met.Value(cacheMisses),
		Stores:    c.met.Value(cacheStores),
		Evictions: c.met.Value(cacheEvictions),
		Computes:  c.met.Value(cacheComputes),
		DedupHits: c.met.Value(cacheDedups),
	}
}
