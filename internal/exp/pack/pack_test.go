package pack

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
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
// background goroutine so tests control audit timing.
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

	// A rotted payload inside intact framing costs only its own needle:
	// the scan skips it and keeps the healthy needles after it.
	dir = t.TempDir()
	st3 := openTest(t, dir)
	fill(t, st3, 5)
	if got := st3.PackStats().Bundles; got != 1 {
		t.Fatalf("5 needles filled %d bundles, want 1", got)
	}
	corruptNeedle(t, st3, testKey(1))
	st3.Close()
	if err := os.Remove(filepath.Join(dir, "pack", indexName)); err != nil {
		t.Fatal(err)
	}
	st4 := openTest(t, dir)
	for _, i := range []int{0, 2, 3, 4} {
		if got, ok := st4.Get(context.Background(), testKey(i)); !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("after a rotted needle 1, Get(%d) = %q, %v", i, got, ok)
		}
	}
	if _, ok := st4.Get(context.Background(), testKey(1)); ok {
		t.Fatal("rotted needle served")
	}
	ps := st4.PackStats()
	if ps.RecoveredNeedles != 4 || ps.CorruptDropped != 1 {
		t.Fatalf("recovered %d needles and dropped %d, want 4 and 1", ps.RecoveredNeedles, ps.CorruptDropped)
	}
	if want := needleSize(len(testBlob(1))); ps.GarbageBytes != want {
		t.Fatalf("garbage = %d bytes, want needle 1's %d", ps.GarbageBytes, want)
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
	// (its CRC fails, so the scan skips it).
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
	// Dead bytes are counted and never rewritten: a drop leaves its
	// needle in place as garbage, and the only reclamation is boot
	// unlinking a bundle no live needle references.
	dir := t.TempDir()
	st := openTest(t, dir)
	const n = 200
	fill(t, st, n)
	before := st.PackStats()
	if before.Bundles < 3 || before.GarbageBytes != 0 {
		t.Fatalf("need several garbage-free bundles, got %+v", before)
	}

	// Drop every needle of the first bundle and three in four elsewhere.
	st.mu.Lock()
	first := st.index[testKey(0)].bundle
	var dropped int64
	var survivors []int
	for i := 0; i < n; i++ {
		key := testKey(i)
		e := st.index[key]
		if e.bundle == first || i%4 != 0 {
			st.dropEntryLocked(key, e, packCorrupt)
			dropped += needleSize(e.n)
		} else {
			survivors = append(survivors, i)
		}
	}
	firstPath := st.bundlePath(first)
	firstSize := st.bundles[first].size
	st.mu.Unlock()

	after := st.PackStats()
	if after.GarbageBytes != dropped || after.LiveBytes+after.GarbageBytes != before.LiveBytes ||
		after.Bundles != before.Bundles {
		t.Fatalf("drops of %d bytes: before %+v after %+v", dropped, before, after)
	}
	for _, i := range survivors {
		got, ok := st.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("survivor %d = %q, %v after drops", i, got, ok)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The reopen unlinks the all-dropped bundle and only it.
	st2 := openTest(t, dir)
	if _, err := os.Stat(firstPath); !os.IsNotExist(err) {
		t.Fatalf("all-dropped bundle survived boot: %v", err)
	}
	reopened := st2.PackStats()
	if reopened.Bundles != before.Bundles-1 || reopened.GarbageBytes != dropped-firstSize {
		t.Fatalf("after reopen %+v; want %d bundles, %d garbage bytes",
			reopened, before.Bundles-1, dropped-firstSize)
	}
	for _, i := range survivors {
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
	// Open reads only <root>/pack. A fan-out directory of the retired
	// one-file-per-result layout beside it is neither read nor removed:
	// its keys miss (the engine re-simulates them to the same bytes) and
	// its files, like the job journal's, stay exactly as they were.
	root := t.TempDir()
	const n = 30
	for i := 0; i < n; i++ {
		key := testKey(i)
		dir := filepath.Join(root, key[:2])
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		rec := fsio.EncodeRecord("impactstore1", testBlob(i))
		if err := os.WriteFile(filepath.Join(dir, key), rec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(root, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "jobs", "journal.log"), []byte("journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := treeOutsidePack(t, root)

	st := openTest(t, root)
	for i := 0; i < n; i++ {
		if got, ok := st.Get(context.Background(), testKey(i)); ok {
			t.Fatalf("legacy entry %d served: %q", i, got)
		}
	}
	st.Put(context.Background(), testKey(n), testBlob(n))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := treeOutsidePack(t, root); !maps.Equal(got, want) {
		t.Fatalf("files outside pack/ changed:\n got %v\nwant %v", got, want)
	}
}

// treeOutsidePack maps every path under root, except the pack dir, to
// its contents ("/" for a directory).
func treeOutsidePack(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if rel == "pack" {
			return filepath.SkipDir
		}
		if de.IsDir() {
			tree[rel] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
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
	// The crash window of a drop: a Get refuses a corrupt needle, but the
	// index write that would persist the drop dies, and the process
	// crashes before the next one. The stale index still points at the
	// needle after a reboot, so the CRC check must drop it again rather
	// than serve it.
	dir := t.TempDir()
	st := openTest(t, dir)
	st.Put(context.Background(), testKey(0), testBlob(0))
	st.Put(context.Background(), testKey(1), testBlob(1))
	corruptNeedle(t, st, testKey(0))
	injected := errors.New("injected")
	fsio.SetFailpoint("pack.index", func() error { return injected })
	_, ok := st.Get(context.Background(), testKey(0))
	fsio.SetFailpoint("pack.index", nil)
	if ok {
		t.Fatal("corrupt needle served")
	}
	if got := st.PackStats().Errors; got != 1 {
		t.Fatalf("errors = %d, want 1 (the failed index write)", got)
	}
	// Abandon without Close — simulate the crash (Close would persist).
	st.mu.Lock()
	for _, b := range st.bundles {
		b.f.Sync()
	}
	st.mu.Unlock()

	st2 := openTest(t, dir)
	if got, ok := st2.Get(context.Background(), testKey(0)); ok {
		t.Fatalf("corrupt needle served after the crash: %q", got)
	}
	if got := st2.PackStats().CorruptDropped; got != 1 {
		t.Fatalf("corrupt_dropped after reboot = %d, want 1 (the CRC check's drop)", got)
	}
	if got, ok := st2.Get(context.Background(), testKey(1)); !ok || !bytes.Equal(got, testBlob(1)) {
		t.Fatalf("sibling entry = %q, %v after the crash", got, ok)
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
	}
	<-done
	for i := 0; i < n; i++ {
		got, ok := st.Get(context.Background(), testKey(i))
		if !ok || !bytes.Equal(got, testBlob(i)) {
			t.Fatalf("entry %d lost under concurrency: %q, %v", i, got, ok)
		}
	}
}
