package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp/fsio"
	"repro/internal/exp/pack"
)

// mustSpec parses a spec document or fails the test.
func mustSpec(t *testing.T, doc string) Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// seedSpec returns a spec whose grid sweeps n distinct noise seeds —
// n unique cold runs nothing else in the test suite has cached.
func seedSpec(t *testing.T, n int) Spec {
	t.Helper()
	seeds := make([]string, n)
	for i := range seeds {
		seeds[i] = fmt.Sprint(1000 + i)
	}
	return mustSpec(t, `{"scenario": "covert-pnm", "grid": {"noise.seed": [`+
		strings.Join(seeds, ", ")+`]}}`)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitSettled polls a job until it will produce no further results and
// returns its final info.
func waitSettled(t *testing.T, j *Job) JobInfo {
	t.Helper()
	waitFor(t, "job "+j.ID+" to settle", func() bool { return settled(j.Status()) })
	return j.Info()
}

// drainJobs waits for every job goroutine to flush its final journal
// record, the way the server's shutdown path always does before exiting.
// A job is observable as settled slightly before its terminal record
// lands, so a test that skips this would race the registry's background
// writes against directory cleanup or a subsequent Recover over the same
// journal.
func drainJobs(t testing.TB, js *Jobs) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := js.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

// logRecords decodes every record of a journal's log, in order, failing
// the test on any damage.
func logRecords(t *testing.T, jl *Journal) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(jl.logPath())
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for len(data) > 0 {
		payload, rest, err := fsio.NextRecord(journalMagic, data)
		if err != nil {
			t.Fatalf("log record %d: %v", len(recs), err)
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("log record %d: %v", len(recs), err)
		}
		recs = append(recs, rec)
		data = rest
	}
	return recs
}

// entryIDs lists recovered entries' IDs, in order.
func entryIDs(entries []journalEntry) []string {
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids
}

// copyLegacyJobs copies testdata/legacy-jobs, a jobs directory written by
// the per-file journal of earlier builds, into a fresh directory. It
// holds an SEQ watermark of 128 and five jobs: job-000001 with a status
// of running in the wider format still older builds wrote, job-000002
// canceled in that format, job-000003 with no status, job-000004 done
// and job-000005 interrupted by a drain.
func copyLegacyJobs(t *testing.T) string {
	t.Helper()
	const src = "testdata/legacy-jobs"
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "jobs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestJournalRecoverRoundTrip pins the journal's happy path: Recover
// returns the jobs without a terminal status in sequence order with
// their specs, counts the settled ones, and restores the watermark. A
// jobs directory written by the per-file journal of earlier builds
// recovers the same way: its watermark is honoured, its unsettled jobs
// resume under their IDs, and the boot folds it into the log before the
// old files go.
func TestJournalRecoverRoundTrip(t *testing.T) {
	jl, err := NewJournal(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	spec := mustSpec(t, `{"scenario": "covert-pnm", "grid": {"noise.seed": [1, 2]}}`)
	if err := jl.RecordSeq(64); err != nil {
		t.Fatal(err)
	}
	// Written out of order: Recover must sort by sequence.
	for _, id := range []string{"job-000003", "job-000002", "job-000001"} {
		if err := jl.RecordSpec(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	// A status that is not terminal still resumes; a terminal one settles.
	if err := jl.RecordStatus("job-000001", journalStatus{Status: JobRunning}); err != nil {
		t.Fatal(err)
	}
	if err := jl.RecordStatus("job-000003", journalStatus{Status: JobDone}); err != nil {
		t.Fatal(err)
	}

	seq, entries, settled := jl.Recover()
	if seq != 64 || settled != 1 {
		t.Fatalf("recovered seq = %d, settled = %d, want the watermark 64 and 1", seq, settled)
	}
	if ids := entryIDs(entries); len(ids) != 2 || ids[0] != "job-000001" || ids[1] != "job-000002" {
		t.Fatalf("entries = %v, want job-000001 then job-000002", ids)
	}
	for _, e := range entries {
		got, _ := json.Marshal(e.Spec)
		want, _ := json.Marshal(spec)
		if !bytes.Equal(got, want) || e.Seq != map[string]int{"job-000001": 1, "job-000002": 2}[e.ID] {
			t.Fatalf("entry %s = seq %d, spec %s; want spec %s", e.ID, e.Seq, got, want)
		}
	}

	// The earlier layout: SEQ, job-*.spec and job-*.status files.
	dir := copyLegacyJobs(t)
	old, err := NewJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	seq, entries, settled = old.Recover()
	if seq != 128 || settled != 2 || old.corruptCount() != 0 || old.errorCount() != 0 {
		t.Fatalf("earlier layout: seq = %d, settled = %d, corrupt = %d, errors = %d; want 128/2/0/0",
			seq, settled, old.corruptCount(), old.errorCount())
	}
	want := []string{"job-000001", "job-000003", "job-000005"}
	if ids := entryIDs(entries); strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("earlier layout resumes %v, want %v", ids, want)
	}
	if e := entries[1]; e.Spec.Scenario != "covert-pum" || len(e.Spec.Grid["noise.seed"]) != 2 {
		t.Fatalf("job-000003 spec = %+v", e.Spec)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != journalLog {
		t.Fatalf("jobs dir after the fold holds %d entries, want only %s", len(names), journalLog)
	}
	again, err := NewJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	seq2, entries2, settled2 := again.Recover()
	if seq2 != seq || strings.Join(entryIDs(entries2), " ") != strings.Join(want, " ") || settled2 != 0 {
		t.Fatalf("second boot: seq = %d, entries = %v, settled = %d; want %d, %v, 0",
			seq2, entryIDs(entries2), settled2, seq, want)
	}

	if testing.Short() {
		return
	}
	// The registry over the earlier layout: the drained job resumes under
	// its ID, settled ones answer retired, and no ID at or below the old
	// watermark is issued again.
	js := NewJobs(NewEngine(), 2, 0, mustJournal(t, copyLegacyJobs(t)))
	if n := js.Recover(); n != 3 {
		t.Fatalf("resumed %d jobs from the earlier layout, want 3", n)
	}
	for id, want := range map[string]LookupState{
		"job-000002": LookupRetired, "job-000004": LookupRetired, "job-000005": LookupFound,
		"job-000128": LookupRetired, "job-000129": LookupUnknown,
	} {
		if _, got := js.Lookup(id); got != want {
			t.Fatalf("Lookup(%s) = %d, want %d", id, got, want)
		}
	}
	fresh, err := js.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.seq <= 128 {
		t.Fatalf("fresh job %s reuses an ID the earlier layout covers", fresh.ID)
	}
	drainJobs(t, js)
}

// mustJournal opens a journal over dir or fails the test.
func mustJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	jl, err := NewJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

// TestJournalWritesOnlyWhatRecoveryReads pins the journal's write budget:
// apart from the watermark, a job's records are its spec, written at
// submission, and one status record, written when it settles. While the
// job is queued or running the log holds no status record for it —
// recovery resumes it either way.
func TestJournalWritesOnlyWhatRecoveryReads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	var writes atomic.Int32
	fsio.SetFailpoint("journal.status", func() error {
		writes.Add(1)
		return nil
	})
	defer fsio.SetFailpoint("journal.status", nil)

	const total = 40
	spec := seedSpec(t, total)
	runs := expandAll(t, spec)
	jl := mustJournal(t, filepath.Join(t.TempDir(), "jobs"))
	eng := NewEngine()
	js := NewJobs(eng, 2, 0, jl)
	js.Recover()
	release := blockRun(eng, runs[0].Key)
	j, err := js.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all unblocked runs to finish", func() bool {
		return j.Info().Completed == total-1
	})
	if n := writes.Load(); n != 0 {
		t.Fatalf("%d status writes while the job ran, want 0", n)
	}
	// The watermark, then the spec: nothing about the run's progress.
	recs := logRecords(t, jl)
	if len(recs) != 2 || recs[0].Seq != seqChunk+1 || recs[1].ID != j.ID || recs[1].Spec == nil {
		t.Fatalf("log of a running job = %+v, want its watermark and spec", recs)
	}

	release(json.RawMessage(`{}`), nil)
	if info := waitSettled(t, j); info.Status != JobDone {
		t.Fatalf("released job = %+v, want done", info)
	}
	drainJobs(t, js)
	if n := writes.Load(); n != 1 {
		t.Fatalf("%d status writes over the job's life, want 1", n)
	}
	recs = logRecords(t, jl)
	if len(recs) != 3 || recs[2].ID != j.ID || recs[2].Status != JobDone {
		t.Fatalf("log of a settled job = %+v, want one more record: its done status", recs)
	}
}

// TestJournalHealsCorruption pins the healing contract: a record whose
// checksum fails mid-log is skipped and counted while the records after
// it survive, a torn tail is dropped, stray temp files are removed and
// foreign files left alone — and the rewritten log recovers clean.
func TestJournalHealsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	jl := mustJournal(t, dir)
	spec := mustSpec(t, `{"scenario": "covert-pnm"}`)
	if err := jl.RecordSeq(64); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-000001", "job-000002", "job-000003", "job-000004"} {
		if err := jl.RecordSpec(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	// Rot one payload byte of job 2's spec record, and end the log with
	// part of a record, as a crash mid-append leaves it.
	data, err := os.ReadFile(jl.logPath())
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"job-000002"`))
	if at < 0 {
		t.Fatal("job-000002 spec record not in the log")
	}
	data[at+len(`"job-00000`)] = '9'
	torn := fsio.EncodeRecord(journalMagic, []byte(`{"id":"job-000001","status":"done"}`))
	data = append(data, torn[:len(torn)-4]...)
	if err := os.WriteFile(jl.logPath(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "NOTES.txt")
	if err := os.WriteFile(foreign, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	seq, entries, settled := jl.Recover()
	want := "job-000001 job-000003 job-000004"
	if ids := strings.Join(entryIDs(entries), " "); seq != 64 || ids != want || settled != 0 {
		t.Fatalf("recovered seq = %d, entries = %s, settled = %d; want 64, %s, 0", seq, ids, settled, want)
	}
	if n := jl.corruptCount(); n != 1 {
		t.Fatalf("corrupt_dropped = %d, want 1 (job 2's spec; the torn tail is not counted)", n)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-crashed")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp file survived healing")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file removed: %v", err)
	}

	// Healed means healed: the next boot sees a clean log.
	jl2 := mustJournal(t, dir)
	seq2, entries2, _ := jl2.Recover()
	if ids := strings.Join(entryIDs(entries2), " "); seq2 != seq || ids != want || jl2.corruptCount() != 0 {
		t.Fatalf("second Recover: seq = %d, entries = %s, corrupt = %d; want %d, %s, 0",
			seq2, ids, jl2.corruptCount(), seq, want)
	}
}

// TestJournalCorruptSeqFallsBack pins the watermark's own healing: a
// watermark record that fails its checksum is dropped and allocation
// resumes above the highest job the log names, so IDs still never
// regress, and the rewritten log carries the repaired watermark.
func TestJournalCorruptSeqFallsBack(t *testing.T) {
	jl := mustJournal(t, filepath.Join(t.TempDir(), "jobs"))
	if err := jl.RecordSeq(64); err != nil {
		t.Fatal(err)
	}
	if err := jl.RecordSpec("job-000007", mustSpec(t, `{"scenario": "covert-pnm"}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jl.logPath())
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`{"seq":64}`))
	if at < 0 {
		t.Fatal("watermark record not at the head of the log")
	}
	data[at+len(`{"seq":6`)] = '5'
	if err := os.WriteFile(jl.logPath(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, entries, _ := jl.Recover()
	if seq != 7 || len(entries) != 1 {
		t.Fatalf("recovered seq=%d entries=%d, want 7/1 (the highest job the log names)", seq, len(entries))
	}
	if jl.corruptCount() != 1 {
		t.Fatalf("corrupt_dropped = %d, want 1", jl.corruptCount())
	}
	// The repaired watermark is itself durable: a second crash right after
	// this boot still cannot regress below it.
	if recs := logRecords(t, jl); len(recs) != 2 || recs[0].Seq != 7 || recs[1].ID != "job-000007" {
		t.Fatalf("rewritten log = %+v, want the watermark 7, then job-000007's spec", recs)
	}
}

// TestJournalRewritesToLiveRecords pins the log's rewrite: once many
// settled jobs have grown the log past compactMinBytes and compactFactor
// times its live records, a write rewrites it down to the watermark and
// the unsettled jobs' specs, and Recover returns exactly those jobs and
// the watermark. A crash at the rewrite, at runtime or at boot, leaves a
// log that recovers the same jobs and watermark.
func TestJournalRewritesToLiveRecords(t *testing.T) {
	// Specs of about 7 KiB grow the log past compactMinBytes in 240 jobs.
	seeds := make([]string, 1000)
	for i := range seeds {
		seeds[i] = fmt.Sprint(100000 + i)
	}
	spec := mustSpec(t, `{"scenario": "covert-pnm", "grid": {"noise.seed": [`+strings.Join(seeds, ", ")+`]}}`)
	// fill journals 240 jobs, reserving IDs as Submit does, and settles
	// all but every 16th; it returns the last watermark and the
	// unsettled jobs.
	fill := func(jl *Journal) (seq int, unsettled []string) {
		for n := 1; n <= 240; n++ {
			if n > seq {
				seq = n + seqChunk
				if err := jl.RecordSeq(seq); err != nil {
					t.Fatal(err)
				}
			}
			id := formatJobID(n)
			if err := jl.RecordSpec(id, spec); err != nil {
				t.Fatal(err)
			}
			if n%16 == 0 {
				unsettled = append(unsettled, id)
			} else if err := jl.RecordStatus(id, journalStatus{Status: JobDone}); err != nil {
				t.Fatal(err)
			}
		}
		return seq, unsettled
	}
	logSize := func(dir string) int64 {
		fi, err := os.Stat(filepath.Join(dir, journalLog))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	recoverSame := func(dir string, seq int, unsettled []string) {
		t.Helper()
		got, entries, _ := mustJournal(t, dir).Recover()
		if ids := strings.Join(entryIDs(entries), " "); got != seq || ids != strings.Join(unsettled, " ") {
			t.Fatalf("recovered seq = %d, entries = %s; want %d, %s", got, ids, seq, strings.Join(unsettled, " "))
		}
	}

	// Every rewrite fails: the log keeps every appended byte, and a boot
	// whose rewrite fails too leaves it as it was.
	crashed := filepath.Join(t.TempDir(), "jobs")
	jl := mustJournal(t, crashed)
	jl.Recover()
	fsio.SetFailpoint("journal.rewrite", func() error { return errors.New("injected crash") })
	defer fsio.SetFailpoint("journal.rewrite", nil)
	seq, unsettled := fill(jl)
	appended := logSize(crashed)
	if appended < compactMinBytes || jl.errorCount() == 0 {
		t.Fatalf("log grew to %d bytes with %d errors counted; want past %d, with the failed rewrites counted",
			appended, jl.errorCount(), compactMinBytes)
	}
	recoverSame(crashed, seq, unsettled)
	if n := logSize(crashed); n != appended {
		t.Fatalf("a failed boot rewrite left %d bytes of %d", n, appended)
	}
	fsio.SetFailpoint("journal.rewrite", nil)
	recoverSame(crashed, seq, unsettled)

	// Rewrites land: the same writes leave a log below compactMinBytes,
	// and a boot leaves exactly the watermark and the unsettled specs.
	dir := filepath.Join(t.TempDir(), "jobs")
	jl = mustJournal(t, dir)
	jl.Recover()
	fill(jl)
	if n := logSize(dir); n >= compactMinBytes {
		t.Fatalf("log holds %d of %d appended bytes, want a rewrite below %d", n, appended, compactMinBytes)
	}
	recoverSame(dir, seq, unsettled)
	recs := logRecords(t, mustJournal(t, dir))
	if len(recs) != 1+len(unsettled) || recs[0].Seq != seq {
		t.Fatalf("log after Recover holds %d records, want the watermark and %d specs", len(recs), len(unsettled))
	}
	for i, id := range unsettled {
		if rec := recs[1+i]; rec.ID != id || rec.Spec == nil {
			t.Fatalf("log record %d = %s %q, want %s's spec", 1+i, rec.ID, rec.Status, id)
		}
	}

	// Eight writers at once, as concurrent submissions and settling jobs
	// write: the rewrites they set off keep every unsettled spec.
	dir = filepath.Join(t.TempDir(), "jobs")
	jl = mustJournal(t, dir)
	jl.Recover()
	if err := jl.RecordSeq(seq); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; n <= 240; n += 8 {
				id := formatJobID(n)
				if err := jl.RecordSpec(id, spec); err != nil {
					t.Error(err)
					return
				}
				if n%16 == 0 {
					continue
				}
				if err := jl.RecordStatus(id, journalStatus{Status: JobDone}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := logSize(dir); n >= compactMinBytes {
		t.Fatalf("log holds %d bytes after concurrent writes, want a rewrite below %d", n, compactMinBytes)
	}
	recoverSame(dir, seq, unsettled)
}

// TestCrashAtEveryWriteBoundary is the fault-injection acceptance test
// over the pack store: for each write boundary in the durability path,
// every write from that boundary onward fails (disk state = exactly the
// writes before the crash), the in-memory registry is discarded, and a
// fresh registry recovers over the same directories. Whatever the crash
// point, recovery never produces a corrupt record, never loses an ID to
// reuse, and never duplicates a job.
//
// The pack store has two boundaries: pack.append (the needle write) and
// pack.index (the index persist — the pack.index-only case is the
// interesting one, where appends land durably but the index write dies,
// so a reboot must rebuild them by scanning the bundle tail). The last
// boundary, journal.rewrite, is the reboot's own first write: process
// one runs clean, the reboot dies rewriting the log, and a third boot
// must recover the same jobs and watermark from the log it left.
func TestCrashAtEveryWriteBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	boundaries := []string{"journal.seq", "journal.spec", "journal.status", "pack.append", "pack.index", "journal.rewrite"}
	// open persists the index on every mutation so the pack.index boundary
	// fires during the sweep, not just at Close, and runs no background
	// goroutine so the crash schedule stays deterministic.
	open := func(t *testing.T, dir string) *pack.Store {
		st, err := pack.Open(filepath.Join(dir, "store"),
			pack.WithIndexEvery(1), pack.WithAuditInterval(0))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	disarm := func() {
		for _, name := range boundaries {
			fsio.SetFailpoint(name, nil)
		}
	}
	for k, crashAt := range boundaries {
		t.Run("pack/"+crashAt, func(t *testing.T) {
			dir := t.TempDir()
			spec := seedSpec(t, 2)

			// Process one: crash (fail all writes) from boundary k onward.
			injected := errors.New("injected crash")
			for _, name := range boundaries[k:] {
				fsio.SetFailpoint(name, func() error { return injected })
			}
			defer disarm()
			store1 := open(t, dir)
			jl1, err := NewJournal(filepath.Join(dir, "jobs"))
			if err != nil {
				t.Fatal(err)
			}
			js1 := NewJobs(NewEngine(WithStore(store1)), 2, 0, jl1)
			j, err := js1.Submit(spec)
			var oldID string
			if crashAt == "journal.seq" {
				// The ID-allocation write is the one non-negotiable: if the
				// watermark cannot land, no ID may escape.
				if !errors.Is(err, ErrJournalUnavailable) {
					t.Fatalf("Submit with failed SEQ write = %v, want ErrJournalUnavailable", err)
				}
			} else {
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				oldID = j.ID
				// Spec/status/store writes are best-effort: the job still runs
				// (in-memory cache), and every failure is counted — journal
				// failures in the registry stats, store failures in the
				// store's own. Only the rewrite boundary lets process one run
				// clean.
				if info := waitSettled(t, j); info.Status != JobDone {
					t.Fatalf("job under injected write failures = %+v", info)
				}
				if crashAt != "journal.rewrite" && strings.HasPrefix(crashAt, "journal.") && js1.Stats().JournalErrors == 0 {
					t.Fatal("failed journal writes were not counted")
				}
				if crashAt != "journal.rewrite" && store1.PackStats().Errors == 0 {
					t.Fatal("failed store writes were not counted")
				}
			}

			// Reboot: failures disarmed, fresh registry over the same dirs.
			// Draining first makes the crashed process's disk state final —
			// exactly what a real crash leaves — instead of racing its last
			// journal write against the recovery scan. The crashed store is
			// abandoned, never closed, like a real crash.
			drainJobs(t, js1)
			disarm()
			if crashAt == "journal.rewrite" {
				fsio.SetFailpoint(crashAt, func() error { return injected })
			}
			store2 := open(t, dir)
			jl2, err := NewJournal(filepath.Join(dir, "jobs"))
			if err != nil {
				t.Fatal(err)
			}
			js2 := NewJobs(NewEngine(WithStore(store2)), 2, 0, jl2)
			resumed := js2.Recover()
			if crashAt == "journal.rewrite" {
				// The reboot died at its rewrite: boot again over the log it
				// left, which must recover the same jobs and watermark.
				if js2.Stats().JournalErrors != 1 {
					t.Fatalf("journal errors = %d, want the failed rewrite", js2.Stats().JournalErrors)
				}
				drainJobs(t, js2)
				disarm()
				js3 := NewJobs(NewEngine(WithStore(store2)), 2, 0, mustJournal(t, filepath.Join(dir, "jobs")))
				if n := js3.Recover(); n != resumed || js3.seq != js2.seq || js3.Stats().Retired != js2.Stats().Retired {
					t.Fatalf("boot after the failed rewrite: resumed %d, seq %d, retired %d; want %d, %d, %d",
						n, js3.seq, js3.Stats().Retired, resumed, js2.seq, js2.Stats().Retired)
				}
				js2 = js3
			}

			// Partial disk states decode clean or not at all — recovery must
			// never see (or serve) a corrupt record.
			if n := js2.Stats().JournalCorruptDropped; n != 0 {
				t.Fatalf("recovery dropped %d corrupt records; crash must leave records absent or complete", n)
			}
			switch crashAt {
			case "journal.seq", "journal.spec":
				// Nothing (or only the watermark) landed: no job to resume.
				if resumed != 0 {
					t.Fatalf("resumed %d jobs from an empty journal", resumed)
				}
			case "journal.status":
				// Spec landed, status did not: the job comes back queued.
				if resumed != 1 {
					t.Fatalf("resumed = %d, want 1", resumed)
				}
				j2, ok := js2.Get(oldID)
				if !ok {
					t.Fatalf("recovered registry does not track %s", oldID)
				}
				info := waitSettled(t, j2)
				if info.Status != JobDone || !info.Resumed || info.ID != oldID {
					t.Fatalf("recovered job = %+v", info)
				}
			case "pack.append", "pack.index", "journal.rewrite":
				// The terminal status record landed: boot retires it.
				if resumed != 0 || js2.Stats().Retired != 1 {
					t.Fatalf("resumed=%d retired=%d, want 0/1", resumed, js2.Stats().Retired)
				}
			}
			if crashAt == "pack.index" {
				// Appends landed, only the index write died: the rebooted
				// store must have rebuilt every run by scanning the bundle
				// tail past the last durable index.
				for _, r := range expandAll(t, spec) {
					if _, ok := store2.Get(context.Background(), r.Key); !ok {
						t.Fatalf("run %s lost: bundle tail not rescanned after index-write crash", r.Key)
					}
				}
			}

			// The watermark survived whatever happened: a fresh submission can
			// never reuse an ID the crashed process may have handed out.
			fresh, err := js2.Submit(seedSpec(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if fresh.ID == oldID && oldID != "" {
				t.Fatalf("recovered registry reissued ID %s", oldID)
			}
			if oldID != "" && fresh.seq <= j.seq {
				t.Fatalf("fresh seq %d did not advance past crashed seq %d", fresh.seq, j.seq)
			}
			waitSettled(t, fresh)
			drainJobs(t, js2)
		})
	}
}

// TestGracefulQuiesceAndResume is the end-to-end drain contract at the
// registry level, race-clean at 8 workers: a sweep interrupted mid-flight
// by Quiesce journals a resumable state, rejects new submissions while
// draining, and a second registry over the same store and journal resumes
// it under the same ID — re-simulating only the one run the "crash" lost,
// with byte-identical results.
func TestGracefulQuiesceAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	dir := t.TempDir()
	const total = 16
	spec := seedSpec(t, total)
	runs := expandAll(t, spec)

	// Process one: run the sweep with run 0 parked so "interrupted with
	// exactly one run outstanding" is a deterministic state.
	store1 := openPack(t, filepath.Join(dir, "store"))
	jl1, err := NewJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	eng1 := NewEngine(WithStore(store1))
	js1 := NewJobs(eng1, 8, 0, jl1)
	release := blockRun(eng1, runs[0].Key)
	j, err := js1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all unblocked runs to finish", func() bool {
		return j.Info().Completed == total-1
	})

	quiesced := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { quiesced <- js1.Quiesce(ctx) }()
	// Quiesce cancels the job before waiting on it; only then release the
	// parked run (with an error — the canceled sweep ignores it, and the
	// resumed engine must re-simulate this run for real).
	waitFor(t, "quiesce to interrupt the job", func() bool { return j.ctx.Err() != nil })
	if _, err := js1.Submit(seedSpec(t, 1)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit during drain = %v, want ErrShuttingDown", err)
	}
	release(nil, errors.New("interrupted before this run completed"))
	if err := <-quiesced; err != nil {
		t.Fatalf("Quiesce: %v", err)
	}

	info := j.Info()
	if info.Status != JobInterrupted || info.Completed != total-1 {
		t.Fatalf("drained job = %+v, want interrupted with %d runs", info, total-1)
	}
	// Settled-but-not-terminal: waiters unblock (a stream client gets its
	// trailing interrupted line instead of hanging into the drain window).
	if _, ok := j.WaitRun(context.Background(), 0); ok {
		t.Fatal("WaitRun returned a result for the interrupted run")
	}
	if !errors.Is(j.Err(), ErrJobInterrupted) {
		t.Fatalf("interrupted job Err = %v", j.Err())
	}

	// Process two: fresh store/journal/engine over the same directories,
	// after process one seals its store the way the server's shutdown
	// does once the drain completes.
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := openPack(t, filepath.Join(dir, "store"))
	jl2, err := NewJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(WithStore(store2))
	js2 := NewJobs(eng2, 8, 0, jl2)
	if n := js2.Recover(); n != 1 {
		t.Fatalf("Recover resumed %d jobs, want 1", n)
	}
	j2, ok := js2.Get(j.ID)
	if !ok {
		t.Fatalf("recovered registry does not track %s", j.ID)
	}
	final := waitSettled(t, j2)
	if final.Status != JobDone || !final.Resumed || final.Completed != total {
		t.Fatalf("resumed job = %+v", final)
	}
	// Recovery cost is proportional to lost work: the 15 stored runs were
	// skipped, only the parked one was simulated.
	if final.Hits != total-1 || final.Misses != 1 {
		t.Fatalf("resumed job hits=%d misses=%d, want %d/1", final.Hits, final.Misses, total-1)
	}
	st := js2.Stats()
	if st.Resumed != 1 || st.RunsSkippedOnResume != int64(total-1) {
		t.Fatalf("stats resumed=%d runs_skipped_on_resume=%d, want 1/%d",
			st.Resumed, st.RunsSkippedOnResume, total-1)
	}

	// Byte identity: the resumed job's runs match a synchronous sweep of
	// the same spec, run by run, and the spec keys agree.
	sweep, err := eng2.RunSpec(context.Background(), spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if final.SpecKey == "" || final.SpecKey != sweep.SpecKey {
		t.Fatalf("spec keys differ: job %q vs sweep %q", final.SpecKey, sweep.SpecKey)
	}
	for i := 0; i < total; i++ {
		rr, ok := j2.WaitRun(context.Background(), i)
		if !ok {
			t.Fatalf("resumed job missing run %d", i)
		}
		got, err := json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(sweep.Runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resumed run %d differs from synchronous sweep:\n got %s\nwant %s", i, got, want)
		}
	}

	// The terminal record lands in the journal, so a third boot (after the
	// second registry drains, like its server would) has nothing to resume
	// — it retires the finished record.
	drainJobs(t, js2)
	js3 := NewJobs(NewEngine(WithStore(store2)), 8, 0, jl2)
	if n := js3.Recover(); n != 0 {
		t.Fatalf("third boot resumed %d jobs, want 0", n)
	}
	if js3.Stats().Retired != 1 {
		t.Fatalf("third boot retired = %d, want 1", js3.Stats().Retired)
	}
}

// TestCancelBeatsInterrupt pins the precedence contract: a job the user
// canceled stays canceled through a drain and a restart — an acknowledged
// DELETE must never resurrect as a resumed job.
func TestCancelBeatsInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	dir := t.TempDir()
	spec := seedSpec(t, 2)
	runs := expandAll(t, spec)
	jl, err := NewJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	js := NewJobs(eng, 2, 0, jl)
	release := blockRun(eng, runs[0].Key)
	j, err := js.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to start", func() bool { return j.Status() == JobRunning })
	j.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- js.Quiesce(ctx) }()
	release(nil, errors.New("unblocked"))
	if err := <-done; err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if st := j.Status(); st != JobCanceled {
		t.Fatalf("canceled-then-drained job = %q, want canceled", st)
	}

	// The journaled record is terminal: a restart retires it, resumes
	// nothing.
	js2 := NewJobs(NewEngine(), 2, 0, jl)
	if n := js2.Recover(); n != 0 {
		t.Fatalf("restart resumed %d jobs after a user cancel", n)
	}
	if js2.Stats().Retired != 1 {
		t.Fatalf("restart retired = %d, want 1", js2.Stats().Retired)
	}
}

// TestRunPanicBecomesFailedRun pins the per-run panic boundary: a
// panicking simulation fails its run (and so its sweep or job) with the
// panic message and stack, while the worker pool, the registry, and the
// process all survive to run the next spec.
func TestRunPanicBecomesFailedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	fsio.SetFailpoint("engine.run", func() error { panic("injected simulator panic") })
	defer fsio.SetFailpoint("engine.run", nil)

	eng := NewEngine()
	js := NewJobs(eng, 2, 0, nil)
	j, err := js.Submit(seedSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	info := waitSettled(t, j)
	if info.Status != JobFailed {
		t.Fatalf("panicking job = %+v, want failed", info)
	}
	if !strings.Contains(info.Error, "injected simulator panic") || !strings.Contains(info.Error, "panicked") {
		t.Fatalf("job error does not carry the panic: %q", info.Error)
	}

	// The pool survived: with the panic disarmed, the same registry runs
	// the next job to completion.
	fsio.SetFailpoint("engine.run", nil)
	j2, err := js.Submit(seedSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if info := waitSettled(t, j2); info.Status != JobDone {
		t.Fatalf("job after recovered panic = %+v, want done", info)
	}
}

// TestSubmitRetryAfterHeader pins the 429 contract at the HTTP surface: a
// registry full of live jobs rejects with the structured too_many_jobs
// envelope plus a Retry-After hint.
func TestSubmitRetryAfterHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	spec := seedSpec(t, 1)
	runs := expandAll(t, spec)
	eng := NewEngine()
	srv := NewServer(eng, WithWorkers(1), WithMaxJobs(1))
	h := srv.Handler()
	release := blockRun(eng, runs[0].Key)
	defer release(json.RawMessage(`{}`), nil)

	doc, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doRequest(t, h, http.MethodPost, "/v1/jobs", string(doc)); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", rec.Code, rec.Body)
	}
	rec := doRequest(t, h, http.MethodPost, "/v1/jobs", string(doc))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var env struct {
		Err struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Err.Code != "too_many_jobs" {
		t.Fatalf("429 envelope = %s (%v)", rec.Body, err)
	}
}

// BenchmarkJobResume measures crash-recovery cost as a function of the
// work actually lost: a 32-run sweep is resumed over a store already
// holding a fraction of its results, so recovery time should scale with
// the missing fraction, not the sweep size (stored runs are skipped via
// store hits). Recorded in docs/benchmark.md.
func BenchmarkJobResume(b *testing.B) {
	seeds := make([]string, 32)
	for i := range seeds {
		seeds[i] = fmt.Sprint(9000 + i)
	}
	doc := `{"scenario": "covert-pnm", "grid": {"noise.seed": [` + strings.Join(seeds, ", ") + `]}}`
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		b.Fatal(err)
	}
	runs := expandAll(b, spec)
	// One reference sweep supplies the blobs used to prepopulate stores.
	sweep, err := NewEngine().RunSpec(context.Background(), spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	blobs := make(map[string]json.RawMessage, len(sweep.Runs))
	for _, rr := range sweep.Runs {
		blobs[rr.Key] = rr.Report
	}

	for _, frac := range []float64{0, 0.5, 0.9} {
		stored := int(frac * float64(len(runs)))
		b.Run(fmt.Sprintf("stored=%d/%d", stored, len(runs)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				store, err := pack.Open(filepath.Join(dir, "store"), pack.WithAuditInterval(0))
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range runs[:stored] {
					store.Put(context.Background(), r.Key, blobs[r.Key])
				}
				jl, err := NewJournal(filepath.Join(dir, "jobs"))
				if err != nil {
					b.Fatal(err)
				}
				if err := jl.RecordSeq(seqChunk); err != nil {
					b.Fatal(err)
				}
				if err := jl.RecordSpec("job-000001", spec); err != nil {
					b.Fatal(err)
				}
				if err := jl.RecordStatus("job-000001", journalStatus{Status: JobInterrupted}); err != nil {
					b.Fatal(err)
				}
				js := NewJobs(NewEngine(WithStore(store)), 0, 0, jl)
				b.StartTimer()

				if n := js.Recover(); n != 1 {
					b.Fatalf("resumed %d jobs", n)
				}
				j, ok := js.Get("job-000001")
				if !ok {
					b.Fatal("recovered job missing")
				}
				for r := range runs {
					if _, ok := j.WaitRun(context.Background(), r); !ok {
						b.Fatalf("resumed job lost run %d", r)
					}
				}
				for !settled(j.Status()) {
					time.Sleep(50 * time.Microsecond)
				}
				if st := j.Status(); st != JobDone {
					b.Fatalf("resumed job = %q", st)
				}
				b.StopTimer()
				drainJobs(b, js)
				store.Close()
			}
		})
	}
}
