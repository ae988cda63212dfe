package pack

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp/fsio"
)

// testKey derives a distinct valid store key from n.
func testKey(n int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("pack-test-key-%d", n)))
	return hex.EncodeToString(sum[:])
}

// testBlob derives the payload stored under testKey(n).
func testBlob(n int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"n":%d,"metric":0.5}`, n))
}

// openTest opens a store with small, deterministic tuning: tiny bundles
// so rotation happens, index persists on every mutation, and no
// background goroutine so tests control compaction and audit timing.
func openTest(t *testing.T, root string, opts ...Option) *Store {
	t.Helper()
	base := []Option{
		WithBundleSize(1 << 12),
		WithIndexEvery(1),
		WithAuditInterval(0),
	}
	st, err := Open(root, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// fill stores n entries and verifies them back.
func fill(t *testing.T, st *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		st.Put(context.Background(), testKey(i), testBlob(i))
	}
	for i := 0; i < n; i++ {
		got, ok := st.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("Get(%d) = %q, %v after fill", i, got, ok)
		}
	}
}

func TestPackRoundTrip(t *testing.T) {
	st := openTest(t, t.TempDir())
	key := testKey(1)
	if _, ok := st.Get(context.Background(), key); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	st.Put(context.Background(), key, testBlob(1))
	got, ok := st.Get(context.Background(), key)
	if !ok || !bytes.Equal(got, testBlob(1)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// First write wins: a second Put must not change the stored bytes.
	st.Put(context.Background(), key, json.RawMessage(`{"other":true}`))
	if got, _ := st.Get(context.Background(), key); !bytes.Equal(got, testBlob(1)) {
		t.Fatalf("second Put changed entry to %q", got)
	}
	if _, ok := st.Get(context.Background(), "not-a-valid-key"); ok {
		t.Fatal("invalid key reported a hit")
	}
	stats := st.PackStats()
	if stats.Stores != 1 || stats.Hits != 2 || stats.IndexEntries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPackRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	const n = 200 // ~9KB of needles against a 4KB bundle size: several rotations
	st := openTest(t, dir)
	fill(t, st, n)
	if got := st.PackStats().Bundles; got < 3 {
		t.Fatalf("expected multiple bundles after %d entries, got %d", n, got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTest(t, dir)
	for i := 0; i < n; i++ {
		got, ok := st2.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("after reopen, Get(%d) = %q, %v", i, got, ok)
		}
	}
	// A clean reopen loads the index; nothing should need scan recovery.
	if rec := st2.PackStats().RecoveredNeedles; rec != 0 {
		t.Fatalf("clean reopen recovered %d needles, want 0", rec)
	}
}

func TestPackScanRebuildsDeletedIndex(t *testing.T) {
	dir := t.TempDir()
	const n = 50
	st := openTest(t, dir)
	fill(t, st, n)
	st.Close()
	if err := os.Remove(filepath.Join(dir, "pack", indexName)); err != nil {
		t.Fatal(err)
	}

	st2 := openTest(t, dir)
	for i := 0; i < n; i++ {
		got, ok := st2.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("after index loss, Get(%d) = %q, %v", i, got, ok)
		}
	}
	if rec := st2.PackStats().RecoveredNeedles; rec != n {
		t.Fatalf("recovered %d needles, want %d", rec, n)
	}
}

func TestPackCorruptIndexFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir)
	fill(t, st, 10)
	st.Close()
	idx := filepath.Join(dir, "pack", indexName)
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(idx, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openTest(t, dir)
	for i := 0; i < 10; i++ {
		if _, ok := st2.Get(context.Background(), testKey(i)); !ok {
			t.Fatalf("entry %d lost after index corruption", i)
		}
	}
	if rec := st2.PackStats().RecoveredNeedles; rec != 10 {
		t.Fatalf("recovered %d needles, want 10", rec)
	}
}

// corruptNeedle flips one payload byte of key's needle on disk.
func corruptNeedle(t *testing.T, st *Store, key string) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.index[key]
	if !ok {
		t.Fatalf("key %s not indexed", key)
	}
	buf := []byte{0xff}
	if _, err := st.bundles[e.bundle].f.WriteAt(buf, e.off+headerSize); err != nil {
		t.Fatal(err)
	}
}

func TestPackCorruptNeedleDroppedAndHealed(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir)
	st.Put(context.Background(), testKey(0), testBlob(0))
	st.Put(context.Background(), testKey(1), testBlob(1))
	corruptNeedle(t, st, testKey(0))

	if _, ok := st.Get(context.Background(), testKey(0)); ok {
		t.Fatal("corrupt needle served")
	}
	if got := st.PackStats().CorruptDropped; got != 1 {
		t.Fatalf("corrupt_dropped = %d, want 1", got)
	}
	// The sibling entry is untouched.
	if got, ok := st.Get(context.Background(), testKey(1)); !ok || !bytes.Equal(got, testBlob(1)) {
		t.Fatalf("sibling entry = %q, %v", got, ok)
	}
	// The next Put heals the key.
	st.Put(context.Background(), testKey(0), testBlob(0))
	if got, ok := st.Get(context.Background(), testKey(0)); !ok || !bytes.Equal(got, testBlob(0)) {
		t.Fatalf("healed entry = %q, %v", got, ok)
	}
}

func TestPackDroppedEntryStaysDroppedAcrossReopen(t *testing.T) {
	// The drop-durability guarantee: once a reader refuses a corrupt
	// needle, no restart may resurrect it — the drop is persisted before
	// Get returns, and the boot scan must not re-index the bad needle
	// (its CRC fails, ending the tail scan).
	dir := t.TempDir()
	st := openTest(t, dir)
	st.Put(context.Background(), testKey(0), testBlob(0))
	corruptNeedle(t, st, testKey(0))
	if _, ok := st.Get(context.Background(), testKey(0)); ok {
		t.Fatal("corrupt needle served")
	}
	st.Close()

	st2 := openTest(t, dir)
	if _, ok := st2.Get(context.Background(), testKey(0)); ok {
		t.Fatal("dropped entry resurrected by reopen")
	}
}

func TestPackCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir)
	const n = 200
	fill(t, st, n)
	before := st.PackStats()
	if before.Bundles < 3 {
		t.Fatalf("need several bundles to compact, got %d", before.Bundles)
	}

	// Orphan most entries so sealed bundles cross the garbage threshold.
	st.mu.Lock()
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			key := testKey(i)
			st.dropEntryLocked(key, st.index[key], packCorrupt)
		}
	}
	st.mu.Unlock()

	moved, err := st.Compact()
	if err != nil || moved == 0 {
		t.Fatalf("Compact = %d, %v", moved, err)
	}
	after := st.PackStats()
	if after.Compactions == 0 || after.CompactedBytes == 0 {
		t.Fatalf("compaction not accounted: %+v", after)
	}
	if after.GarbageBytes >= before.GarbageBytes+before.LiveBytes {
		t.Fatalf("compaction reclaimed nothing: before %+v after %+v", before, after)
	}
	for i := 0; i < n; i += 4 {
		got, ok := st.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("survivor %d lost by compaction: %q, %v", i, got, ok)
		}
	}
	st.Close()

	// Survivors stay readable across a reopen (the swapped index is the
	// one on disk).
	st2 := openTest(t, dir)
	for i := 0; i < n; i += 4 {
		got, ok := st2.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("survivor %d lost after reopen: %q, %v", i, got, ok)
		}
	}
}

func TestPackAuditDropsRot(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir)
	const n = 20
	fill(t, st, n)
	corruptNeedle(t, st, testKey(3))
	corruptNeedle(t, st, testKey(7))

	checked, dropped := st.Audit(n)
	if checked != n || dropped != 2 {
		t.Fatalf("Audit = %d checked, %d dropped; want %d, 2", checked, dropped, n)
	}
	stats := st.PackStats()
	if stats.AuditCorruptDropped != 2 || stats.AuditedNeedles != int64(n) || stats.AuditPasses != 1 {
		t.Fatalf("audit stats = %+v", stats)
	}
	for i := 0; i < n; i++ {
		_, ok := st.Get(context.Background(), testKey(i))
		if want := i != 3 && i != 7; ok != want {
			t.Fatalf("after audit, Get(%d) ok = %v, want %v", i, ok, want)
		}
	}
	// Incremental batches: a second full pass over the healthy remainder.
	st.Put(context.Background(), testKey(3), testBlob(3))
	st.Put(context.Background(), testKey(7), testBlob(7))
	for done := 0; done < n; {
		c, d := st.Audit(7)
		if d != 0 {
			t.Fatalf("healthy pass dropped %d", d)
		}
		done += c
	}
	if got := st.PackStats().AuditPasses; got != 2 {
		t.Fatalf("audit passes = %d, want 2", got)
	}
}

func TestPackTornTailTruncatedOnBoot(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir)
	fill(t, st, 5)
	st.Close()

	// Simulate a torn append: a valid needle prefix cut mid-payload.
	bundles, _ := filepath.Glob(filepath.Join(dir, "pack", "bundle-*.pack"))
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v", bundles)
	}
	full := encodeNeedle(rawKey(testKey(99)), testBlob(99))
	f, err := os.OpenFile(bundles[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Remove(filepath.Join(dir, "pack", indexName)); err != nil {
		t.Fatal(err)
	}

	st2 := openTest(t, dir)
	for i := 0; i < 5; i++ {
		if _, ok := st2.Get(context.Background(), testKey(i)); !ok {
			t.Fatalf("entry %d lost to torn-tail truncation", i)
		}
	}
	if _, ok := st2.Get(context.Background(), testKey(99)); ok {
		t.Fatal("torn needle served")
	}
	// The tail was physically removed, so the next boot scans cleanly too.
	st2.Put(context.Background(), testKey(99), testBlob(99))
	st2.Close()
	st3 := openTest(t, dir)
	if got, ok := st3.Get(context.Background(), testKey(99)); !ok || !bytes.Equal(got, testBlob(99)) {
		t.Fatalf("append after truncation = %q, %v", got, ok)
	}
}

func TestPackMigratesPerFileLayout(t *testing.T) {
	root := t.TempDir()
	// Hand-build the per-file layout the retired backend wrote: the same
	// record framing, fanned out over two-hex-digit dirs.
	const n = 30
	for i := 0; i < n; i++ {
		key := testKey(i)
		dir := filepath.Join(root, key[:2])
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		rec := fsio.EncodeRecord(legacyMagic, testBlob(i))
		if err := os.WriteFile(filepath.Join(dir, key), rec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// One corrupt legacy entry: migration must drop it, like a per-file
	// Get would.
	badKey := testKey(n)
	if err := os.MkdirAll(filepath.Join(root, badKey[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, badKey[:2], badKey), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The journal dir must survive migration untouched.
	if err := os.MkdirAll(filepath.Join(root, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}

	st := openTest(t, root)
	for i := 0; i < n; i++ {
		got, ok := st.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("migrated entry %d = %q, %v", i, got, ok)
		}
	}
	if _, ok := st.Get(context.Background(), badKey); ok {
		t.Fatal("corrupt legacy entry migrated")
	}
	stats := st.PackStats()
	if stats.Migrated != n {
		t.Fatalf("migrated = %d, want %d", stats.Migrated, n)
	}
	// The fan-out dirs are gone; jobs and pack remain.
	des, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if name := de.Name(); name != "jobs" && name != "pack" {
			t.Fatalf("migration left %q behind", name)
		}
	}
	// Idempotent: a reopen migrates nothing further.
	st.Close()
	st2 := openTest(t, root)
	if got := st2.PackStats().Migrated; got != 0 {
		t.Fatalf("second open migrated %d entries", got)
	}
}

func TestPackFailpointAppend(t *testing.T) {
	st := openTest(t, t.TempDir())
	injected := errors.New("injected")
	fsio.SetFailpoint("pack.append", func() error { return injected })
	st.Put(context.Background(), testKey(0), testBlob(0))
	fsio.SetFailpoint("pack.append", nil)
	if _, ok := st.Get(context.Background(), testKey(0)); ok {
		t.Fatal("failed append still indexed")
	}
	if got := st.PackStats().Errors; got != 1 {
		t.Fatalf("errors = %d, want 1", got)
	}
	// The store keeps working after the fault clears.
	st.Put(context.Background(), testKey(0), testBlob(0))
	if got, ok := st.Get(context.Background(), testKey(0)); !ok || !bytes.Equal(got, testBlob(0)) {
		t.Fatalf("post-fault Put = %q, %v", got, ok)
	}
}

func TestPackFailpointIndexRecoversByScan(t *testing.T) {
	// An index write that dies at the failpoint leaves appended needles
	// covered only by the bundle; a reopen must rebuild them by scan.
	dir := t.TempDir()
	st := openTest(t, dir)
	st.Put(context.Background(), testKey(0), testBlob(0)) // indexed durably
	injected := errors.New("injected")
	fsio.SetFailpoint("pack.index", func() error { return injected })
	st.Put(context.Background(), testKey(1), testBlob(1)) // append lands, index write dies
	fsio.SetFailpoint("pack.index", nil)
	// Abandon without Close — simulate the crash (Close would persist).
	st.mu.Lock()
	for _, b := range st.bundles {
		b.f.Sync()
	}
	st.mu.Unlock()

	st2 := openTest(t, dir)
	for i := 0; i < 2; i++ {
		got, ok := st2.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("after index-write crash, Get(%d) = %q, %v", i, got, ok)
		}
	}
	if rec := st2.PackStats().RecoveredNeedles; rec == 0 {
		t.Fatal("scan recovered nothing; the unindexed append was lost")
	}
}

func TestPackFailpointCompactSwap(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir)
	const n = 120
	fill(t, st, n)
	st.mu.Lock()
	for i := 0; i < n; i++ {
		if i%2 != 0 {
			key := testKey(i)
			st.dropEntryLocked(key, st.index[key], packCorrupt)
		}
	}
	st.mu.Unlock()

	injected := errors.New("injected")
	fsio.SetFailpoint("pack.compact.swap", func() error { return injected })
	if _, err := st.Compact(); !errors.Is(err, injected) {
		t.Fatalf("Compact with armed swap failpoint = %v", err)
	}
	fsio.SetFailpoint("pack.compact.swap", nil)

	// Nothing lost: every survivor readable, both live and after reopen.
	for i := 0; i < n; i += 2 {
		if _, ok := st.Get(context.Background(), testKey(i)); !ok {
			t.Fatalf("survivor %d lost to aborted compaction", i)
		}
	}
	// Retrying succeeds and actually reclaims.
	if moved, err := st.Compact(); err != nil || moved == 0 {
		t.Fatalf("Compact retry = %d, %v", moved, err)
	}
	st.Close()
	st2 := openTest(t, dir)
	for i := 0; i < n; i += 2 {
		got, ok := st2.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("survivor %d wrong after reopen: %q, %v", i, got, ok)
		}
	}
}

func TestPackConcurrentAccess(t *testing.T) {
	st := openTest(t, t.TempDir(), WithIndexEvery(16))
	const n = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			st.Put(context.Background(), testKey(i), testBlob(i))
		}
	}()
	for i := 0; i < n; i++ {
		st.Get(context.Background(), testKey(i%50))
		if i%37 == 0 {
			st.Audit(8)
		}
		if i%53 == 0 {
			st.Compact()
		}
	}
	<-done
	for i := 0; i < n; i++ {
		got, ok := st.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("entry %d lost under concurrency: %q, %v", i, got, ok)
		}
	}
}
