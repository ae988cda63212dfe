// Package pack is the bundle-file result store: the backend that keeps
// lookup latency flat while the object count grows past what a
// file-per-result layout can carry.
//
// The retired per-file store spent one inode, one directory entry, and
// one directory fsync per result; past ~10^5 objects the filesystem's
// metadata paths dominate every operation.
// The pack engine instead appends results into a few large append-only
// bundle files, each record framed as a checksummed needle (magic, key,
// length, CRC — see needle.go), and keeps a compact key → (bundle,
// offset, length) index in memory, persisted to a single atomically
// rewritten index file (see index.go). A Get is one index probe and one
// pread regardless of whether the store holds a thousand results or a
// million; a Put is one sequential append, with the bundle fsync and
// index rewrite amortized over many writes instead of paid per object.
//
// Durability follows the shared fsio discipline, weakened only where
// the content-addressed contract allows: the index file is always
// complete-or-absent (atomic replace + dir fsync), while recent appends
// may be lost to a power cut between index writes — a loss the engine
// repairs by re-simulating, never a wrong answer. On boot, Open replays
// each bundle's un-indexed tail to rebuild what the last index write
// missed, truncates torn tails, migrates any per-file layout it finds
// beside the pack dir, and unlinks bundles no live needle references.
//
// Two background maintainers keep an aging store healthy: a compactor
// rewrites bundles whose garbage fraction (dropped needles, duplicate
// appends) crosses a threshold, swapping the index atomically and
// unlinking the old bundle only after the new index is durable; and an
// auditor incrementally re-verifies needle CRCs, dropping rotted
// entries from the index so the next lookup heals them by
// re-simulation. Both are observable through PackStats, exported on
// /v1/metrics.
package pack

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/exp/fsio"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// Fixed counter IDs, in the slot order passed to metrics.NewSet in Open.
const (
	packHits metrics.CounterID = iota
	packMisses
	packStores
	packCorrupt
	packErrors
	packMigrated
	packRecovered
	packIndexWrites
	packCompactions
	packCompactedBytes
	packAuditPasses
	packAudited
	packAuditCorrupt
)

// options collects the tunables; production defaults suit a server, the
// tests shrink everything to force rotation/compaction/audit activity.
type options struct {
	bundleSize    int64         // rotate the active bundle past this size
	indexEvery    int           // persist the index every N mutations
	garbageRatio  float64       // compact a sealed bundle past this garbage fraction
	auditInterval time.Duration // background maintenance cadence (0 = disabled)
	auditBatch    int           // needles re-verified per maintenance tick
}

// Option configures a Store at Open.
type Option func(*options)

// WithBundleSize sets the rotation threshold for the active bundle.
func WithBundleSize(n int64) Option { return func(o *options) { o.bundleSize = n } }

// WithIndexEvery sets how many index mutations may accumulate before the
// index file is rewritten (lower = less scan work on boot, more fsyncs).
func WithIndexEvery(n int) Option { return func(o *options) { o.indexEvery = n } }

// WithGarbageRatio sets the garbage fraction past which a sealed bundle
// is compacted.
func WithGarbageRatio(f float64) Option { return func(o *options) { o.garbageRatio = f } }

// WithAuditInterval sets the background maintenance cadence; 0 disables
// the background goroutine (Audit and Compact remain callable).
func WithAuditInterval(d time.Duration) Option { return func(o *options) { o.auditInterval = d } }

// WithAuditBatch sets how many needles each audit tick re-verifies.
func WithAuditBatch(n int) Option { return func(o *options) { o.auditBatch = n } }

// bundle is one on-disk bundle file plus its accounting.
type bundle struct {
	id        uint32
	f         *os.File
	size      int64 // bytes written (append offset)
	live      int64 // bytes referenced by live index entries
	indexedTo int64 // bytes covered by the last persisted index
}

// Store is a pack-engine result store rooted at <dir>/pack. It
// implements exp.ResultStore: content-addressed, first write wins, corrupt
// entries degrade to misses and heal on the next Put. Safe for
// concurrent use.
type Store struct {
	root string // the -data-dir; scanned once for per-file migration
	dir  string // <root>/pack
	opts options
	met  *metrics.Set

	mu         sync.RWMutex
	index      map[string]indexEntry
	bundles    map[uint32]*bundle
	active     uint32
	nextID     uint32
	dirty      int      // index mutations since the last persisted index
	auditQueue []string // keys awaiting re-verification this audit pass
	closed     bool

	bg chan struct{}
	wg sync.WaitGroup
}

// Open opens (creating if needed) a pack store under root/pack. Any
// per-file store layout found directly under root (the two-hex-digit
// fan-out the retired per-file backend wrote) is migrated into bundles
// and removed — a one-way upgrade, after which the directory serves the
// same keys with flat lookup cost. See the package comment for the boot
// sequence.
func Open(root string, opts ...Option) (*Store, error) {
	o := options{
		bundleSize:    256 << 20,
		indexEvery:    1024,
		garbageRatio:  0.5,
		auditInterval: 30 * time.Second,
		auditBatch:    512,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.bundleSize < needleSize(0) {
		return nil, fmt.Errorf("pack: bundle size %d below minimum needle size", o.bundleSize)
	}
	if o.indexEvery < 1 || o.auditBatch < 1 || o.garbageRatio <= 0 || o.garbageRatio > 1 {
		return nil, fmt.Errorf("pack: invalid options %+v", o)
	}
	dir := filepath.Join(root, "pack")
	if err := fsio.EnsureDir(dir); err != nil {
		return nil, fmt.Errorf("pack: %v", err)
	}
	s := &Store{
		root: root,
		dir:  dir,
		opts: o,
		met: metrics.NewSet("hits", "misses", "stores", "corrupt_dropped", "errors",
			"migrated", "recovered_needles", "index_writes", "compactions",
			"compacted_bytes", "audit_passes", "audited_needles", "audit_corrupt_dropped"),
		index:   make(map[string]indexEntry),
		bundles: make(map[uint32]*bundle),
		nextID:  1,
		bg:      make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.migrate()
	s.mu.Lock()
	if s.dirty > 0 {
		s.persistIndexLocked() // best-effort; a failure re-scans on next boot
	}
	s.mu.Unlock()
	if o.auditInterval > 0 {
		s.wg.Add(1)
		go s.background()
	}
	return s, nil
}

// Dir returns the pack directory (under the data-dir root).
func (s *Store) Dir() string { return s.dir }

// bundlePath names a bundle file.
func (s *Store) bundlePath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("bundle-%08d.pack", id))
}

// recover rebuilds the in-memory state from disk: persisted index if
// intact, then each bundle's un-indexed tail, healing torn tails by
// truncation and unlinking bundles nothing references.
func (s *Store) recover() error {
	table, entries, haveIndex := loadIndex(filepath.Join(s.dir, indexName))
	if haveIndex {
		s.index = entries
	}
	scannedTo := make(map[uint32]int64, len(table))
	for _, row := range table {
		scannedTo[row.id] = row.scannedTo
	}

	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("pack: %v", err)
	}
	for _, de := range names {
		name := de.Name()
		if name == indexName || de.IsDir() {
			continue
		}
		if tmp := filepath.Join(s.dir, name); len(name) > 5 && name[:5] == ".tmp-" {
			os.Remove(tmp) // a crash mid index write leaves at worst a stray temp
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, "bundle-%08d.pack", &id); err != nil || s.bundlePath(id) != filepath.Join(s.dir, name) {
			continue // not a name this store ever writes; leave it alone
		}
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0o644)
		if err != nil {
			s.met.Add(packErrors, 1)
			continue
		}
		st, err := f.Stat()
		if err != nil {
			s.met.Add(packErrors, 1)
			f.Close()
			continue
		}
		s.bundles[id] = &bundle{id: id, f: f, size: st.Size()}
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}

	// Drop index entries whose bundle file is gone or too short to hold
	// them — an index is an accelerator, never an oracle.
	for key, e := range s.index {
		b, ok := s.bundles[e.bundle]
		if !ok || e.off+needleSize(e.n) > b.size {
			delete(s.index, key)
			s.met.Add(packCorrupt, 1)
		}
	}

	// Replay each bundle's tail beyond what the persisted index covers.
	ids := make([]uint32, 0, len(s.bundles))
	for id := range s.bundles {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b := s.bundles[id]
		from := scannedTo[id]
		if from > b.size {
			from = 0 // index claims more than the file holds: rescan it all
		}
		s.scanTail(b, from)
	}

	// Per-bundle live accounting, then unlink bundles no entry references.
	for _, e := range s.index {
		s.bundles[e.bundle].live += needleSize(e.n)
	}
	for id, b := range s.bundles {
		if b.live == 0 {
			b.f.Close()
			if err := os.Remove(s.bundlePath(id)); err != nil {
				s.met.Add(packErrors, 1)
			}
			delete(s.bundles, id)
			s.dirty++
		}
	}

	// Pick (or create) the active bundle: the newest one with append room.
	if len(s.bundles) > 0 {
		maxID := ids[0]
		for id := range s.bundles {
			if id > maxID {
				maxID = id
			}
		}
		if b := s.bundles[maxID]; b.size < s.opts.bundleSize {
			s.active = maxID
			return nil
		}
	}
	_, err = s.rotateLocked()
	return err
}

// scanTail replays one bundle's needles from offset from, adding any key
// the index does not already hold. The scan stops at the first frame
// that fails to decode — everything past it is a torn tail or rot — and
// truncates the file there so the append offset is trustworthy again.
func (s *Store) scanTail(b *bundle, from int64) {
	if from >= b.size {
		return
	}
	rd := bufio.NewReaderSize(io.NewSectionReader(b.f, from, b.size-from), 1<<20)
	off := from
	var header [headerSize]byte
	for off < b.size {
		if _, err := io.ReadFull(rd, header[:]); err != nil {
			break // torn mid-header
		}
		h, ok := decodeNeedleHeader(header[:])
		if !ok {
			s.met.Add(packCorrupt, 1) // a full header that doesn't decode is damage, not a tear
			break
		}
		payload := make([]byte, h.n)
		if _, err := io.ReadFull(rd, payload); err != nil {
			break // torn mid-payload
		}
		if !h.checkPayload(payload) {
			s.met.Add(packCorrupt, 1)
			break
		}
		key := hexKey(h.key)
		if _, dup := s.index[key]; !dup {
			s.index[key] = indexEntry{bundle: b.id, off: off, n: h.n}
			s.met.Add(packRecovered, 1)
			s.dirty++
		}
		off += needleSize(h.n)
	}
	if off < b.size {
		// Truncate the untrustworthy tail so future appends extend a clean
		// prefix instead of burying garbage mid-bundle.
		if err := b.f.Truncate(off); err != nil {
			s.met.Add(packErrors, 1)
			return
		}
		b.f.Sync()
		b.size = off
		s.dirty++
	}
}

// rotateLocked seals the active bundle (fsync) and opens a fresh one.
// Callers hold mu (or are inside single-threaded Open).
func (s *Store) rotateLocked() (*bundle, error) {
	if cur, ok := s.bundles[s.active]; ok {
		if err := cur.f.Sync(); err != nil {
			s.met.Add(packErrors, 1)
			return nil, err
		}
	}
	id := s.nextID
	f, err := os.OpenFile(s.bundlePath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		s.met.Add(packErrors, 1)
		return nil, err
	}
	s.nextID++
	b := &bundle{id: id, f: f}
	s.bundles[id] = b
	s.active = id
	return b, nil
}

// Get returns the stored report bytes for a key: one index probe, one
// pread, one CRC check. A needle that fails verification is dropped
// from the index (and the drop persisted) so the entry heals by
// re-simulation instead of poisoning every later read.
func (s *Store) Get(_ context.Context, key string) (json.RawMessage, bool) {
	if !validKey(key) {
		s.met.Add(packMisses, 1)
		return nil, false
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.met.Add(packMisses, 1)
		return nil, false
	}
	e, ok := s.index[key]
	var buf []byte
	var readErr error
	if ok {
		buf = make([]byte, needleSize(e.n))
		_, readErr = s.bundles[e.bundle].f.ReadAt(buf, e.off)
	}
	s.mu.RUnlock()
	if !ok {
		s.met.Add(packMisses, 1)
		return nil, false
	}
	if readErr == nil {
		if h, okh := decodeNeedleHeader(buf); okh && h.key == rawKey(key) && h.checkPayload(buf[headerSize:]) {
			s.met.Add(packHits, 1)
			return json.RawMessage(buf[headerSize:]), true
		}
	} else {
		s.met.Add(packErrors, 1)
	}
	s.dropCorrupt(key, e, packCorrupt)
	s.met.Add(packMisses, 1)
	return nil, false
}

// dropCorrupt removes a damaged entry from the index and persists the
// drop, so a crash cannot resurrect an entry a reader already refused.
// The needle bytes stay behind as bundle garbage for the compactor.
func (s *Store) dropCorrupt(key string, e indexEntry, counter metrics.CounterID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.index[key]
	if !ok || cur != e {
		return // raced with a concurrent drop or a healing re-Put
	}
	delete(s.index, key)
	if b, ok := s.bundles[e.bundle]; ok {
		b.live -= needleSize(e.n)
	}
	s.met.Add(counter, 1)
	s.dirty++
	s.persistIndexLocked() // best-effort; the drop is re-derived by audit if lost
}

// Put persists report bytes under a key: one append to the active
// bundle. First write wins. Best-effort: any
// failure is counted and degrades to a future miss, never a wrong
// answer.
func (s *Store) Put(_ context.Context, key string, blob json.RawMessage) {
	if !validKey(key) {
		s.met.Add(packErrors, 1)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, ok := s.index[key]; ok {
		return
	}
	if err := s.appendLocked(key, blob); err != nil {
		s.met.Add(packErrors, 1)
		return
	}
	s.met.Add(packStores, 1)
	if s.dirty >= s.opts.indexEvery {
		s.persistIndexLocked() // best-effort; the tail scan covers a failure
	}
}

// appendLocked writes one needle at the active bundle's append offset
// and indexes it. The caller holds mu and accounts errors.
func (s *Store) appendLocked(key string, payload []byte) error {
	if err := fsio.Failpoint("pack.append"); err != nil {
		return err
	}
	b := s.bundles[s.active]
	if b == nil || b.size >= s.opts.bundleSize {
		var err error
		if b, err = s.rotateLocked(); err != nil {
			return err
		}
	}
	needle := encodeNeedle(rawKey(key), payload)
	if _, err := b.f.WriteAt(needle, b.size); err != nil {
		// A partial tail is exactly what the boot scan heals; trim it now
		// so this process's later appends don't bury it mid-bundle.
		b.f.Truncate(b.size)
		return err
	}
	s.index[key] = indexEntry{bundle: b.id, off: b.size, n: len(payload)}
	b.size += needleSize(len(payload))
	b.live += needleSize(len(payload))
	s.dirty++
	return nil
}

// persistIndexLocked rewrites the index file to match the in-memory
// state: fsync the active bundle first (data before metadata), then
// atomically replace INDEX. On success every bundle's watermark
// advances to its current size. Best-effort for callers that treat the
// index as an accelerator; returns the error for the swap paths that
// must not proceed without durability.
func (s *Store) persistIndexLocked() error {
	err := func() error {
		if err := fsio.Failpoint("pack.index"); err != nil {
			return err
		}
		if b, ok := s.bundles[s.active]; ok {
			if err := b.f.Sync(); err != nil {
				return err
			}
		}
		table := make([]indexBundle, 0, len(s.bundles))
		for _, b := range s.bundles {
			table = append(table, indexBundle{id: b.id, scannedTo: b.size})
		}
		sort.Slice(table, func(i, j int) bool { return table[i].id < table[j].id })
		return fsio.AtomicWrite(filepath.Join(s.dir, indexName),
			fsio.EncodeRecord(indexMagic, encodeIndex(table, s.index)))
	}()
	if err != nil {
		s.met.Add(packErrors, 1)
		return err
	}
	for _, b := range s.bundles {
		b.indexedTo = b.size
	}
	s.dirty = 0
	s.met.Add(packIndexWrites, 1)
	return nil
}

// background runs the maintenance loop: each tick re-verifies a batch
// of needles and compacts any bundle past the garbage threshold.
func (s *Store) background() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.auditInterval)
	defer t.Stop()
	for {
		select {
		case <-s.bg:
			return
		case <-t.C:
			s.Audit(s.opts.auditBatch)
			s.Compact()
		}
	}
}

// Close stops the maintenance loop, persists the index, and closes
// every bundle. The store serves misses (and drops writes) afterward.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	close(s.bg)
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.dirty > 0 {
		err = s.persistIndexLocked()
	}
	for _, b := range s.bundles {
		b.f.Sync()
		if cerr := b.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.closed = true
	return err
}

// PackStats snapshots the store's counters and gauges for /v1/metrics.
func (s *Store) PackStats() api.PackStats {
	s.mu.RLock()
	var live, total int64
	for _, b := range s.bundles {
		live += b.live
		total += b.size
	}
	st := api.PackStats{
		Bundles:      int64(len(s.bundles)),
		IndexEntries: int64(len(s.index)),
		LiveBytes:    live,
		GarbageBytes: total - live,
	}
	s.mu.RUnlock()
	st.Hits = s.met.Value(packHits)
	st.Misses = s.met.Value(packMisses)
	st.Stores = s.met.Value(packStores)
	st.CorruptDropped = s.met.Value(packCorrupt)
	st.Errors = s.met.Value(packErrors)
	st.Migrated = s.met.Value(packMigrated)
	st.RecoveredNeedles = s.met.Value(packRecovered)
	st.IndexWrites = s.met.Value(packIndexWrites)
	st.Compactions = s.met.Value(packCompactions)
	st.CompactedBytes = s.met.Value(packCompactedBytes)
	st.AuditPasses = s.met.Value(packAuditPasses)
	st.AuditedNeedles = s.met.Value(packAudited)
	st.AuditCorruptDropped = s.met.Value(packAuditCorrupt)
	return st
}
