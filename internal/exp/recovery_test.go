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

// TestJournalRecoverRoundTrip pins the journal's happy path: records
// round-trip through Recover in sequence order with their last status
// attached, and the SEQ watermark wins over the highest spec number.
func TestJournalRecoverRoundTrip(t *testing.T) {
	jl, err := NewJournal(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	spec := mustSpec(t, `{"scenario": "covert-pnm"}`)
	if err := jl.RecordSeq(64); err != nil {
		t.Fatal(err)
	}
	// Written out of order: Recover must sort by sequence.
	if err := jl.RecordSpec("job-000002", spec); err != nil {
		t.Fatal(err)
	}
	if err := jl.RecordSpec("job-000001", spec); err != nil {
		t.Fatal(err)
	}
	if err := jl.RecordStatus("job-000001", journalStatus{Status: JobRunning, Completed: 3}); err != nil {
		t.Fatal(err)
	}

	seq, entries := jl.Recover()
	if seq != 64 {
		t.Fatalf("recovered seq = %d, want the SEQ watermark 64", seq)
	}
	if len(entries) != 2 || entries[0].ID != "job-000001" || entries[1].ID != "job-000002" {
		t.Fatalf("entries = %+v, want job-000001 then job-000002", entries)
	}
	if st := entries[0].Status; st.Status != JobRunning || st.Completed != 3 {
		t.Fatalf("job-000001 status = %+v", st)
	}
	// A missing status record recovers as the zero value (queued).
	if st := entries[1].Status; st.Status != "" || st.Completed != 0 {
		t.Fatalf("job-000002 status = %+v, want zero", st)
	}
}

// TestJournalHealsCorruption pins the healing contract: corrupt specs are
// dropped (their files deleted, their sequence numbers still advancing
// the watermark), corrupt statuses are deleted with the job surviving as
// queued, orphaned statuses and stray temp files are removed, foreign
// files are left alone — and a second Recover over the healed directory
// is clean.
func TestJournalHealsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	jl, err := NewJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := mustSpec(t, `{"scenario": "covert-pnm"}`)
	running := journalStatus{Status: JobRunning, Completed: 1}
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		if err := jl.RecordSpec(id, spec); err != nil {
			t.Fatal(err)
		}
		if err := jl.RecordStatus(id, running); err != nil {
			t.Fatal(err)
		}
	}
	// job 2: torn status record. job 3: torn spec record.
	truncate := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	truncate(jl.statusPath("job-000002"))
	truncate(jl.specPath("job-000003"))
	// Orphaned status (its spec never landed) and a stray mid-write temp.
	if err := jl.RecordStatus("job-000004", running); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign file the journal never wrote must survive untouched.
	foreign := filepath.Join(dir, "NOTES.txt")
	if err := os.WriteFile(foreign, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	seq, entries := jl.Recover()
	if seq != 3 {
		t.Fatalf("recovered seq = %d, want 3 (highest spec, corrupt included)", seq)
	}
	if len(entries) != 2 || entries[0].ID != "job-000001" || entries[1].ID != "job-000002" {
		t.Fatalf("entries = %+v, want jobs 1 and 2", entries)
	}
	if st := entries[0].Status; st != running {
		t.Fatalf("job-000001 status = %+v", st)
	}
	if st := entries[1].Status; st.Status != "" {
		t.Fatalf("job-000002 corrupt status recovered as %+v, want zero (queued)", st)
	}
	if n := jl.corruptCount(); n != 2 {
		t.Fatalf("corrupt_dropped = %d, want 2 (one spec, one status)", n)
	}
	for _, path := range []string{
		jl.specPath("job-000003"), jl.statusPath("job-000003"),
		jl.statusPath("job-000004"), filepath.Join(dir, ".tmp-crashed"),
	} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived healing", path)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file removed: %v", err)
	}

	// Healed means healed: the next boot sees a clean journal.
	jl2, err := NewJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	seq2, entries2 := jl2.Recover()
	if seq2 != seq || len(entries2) != 2 || jl2.corruptCount() != 0 {
		t.Fatalf("second Recover: seq=%d entries=%d corrupt=%d, want %d/2/0",
			seq2, len(entries2), jl2.corruptCount(), seq)
	}
}

// TestJournalCorruptSeqFallsBack pins the watermark's own healing: a torn
// SEQ record is deleted and allocation resumes above the highest spec on
// disk, so IDs still never regress.
func TestJournalCorruptSeqFallsBack(t *testing.T) {
	jl, err := NewJournal(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.RecordSeq(64); err != nil {
		t.Fatal(err)
	}
	if err := jl.RecordSpec("job-000007", mustSpec(t, `{"scenario": "covert-pnm"}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jl.seqPath(), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	seq, entries := jl.Recover()
	if seq != 7 || len(entries) != 1 {
		t.Fatalf("recovered seq=%d entries=%d, want 7/1 (spec scan fallback)", seq, len(entries))
	}
	if jl.corruptCount() != 1 {
		t.Fatalf("corrupt_dropped = %d, want 1", jl.corruptCount())
	}
	// The repaired watermark is itself durable: a second crash right after
	// this boot still cannot regress below the scanned sequence.
	data, err := os.ReadFile(jl.seqPath())
	if err != nil {
		t.Fatalf("repaired SEQ: %v", err)
	}
	if payload, ok := fsio.DecodeRecord(journalMagic, data); !ok || string(payload) != "7" {
		t.Fatalf("repaired SEQ = %q (ok=%v), want 7", payload, ok)
	}
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
// so a reboot must rebuild them by scanning the bundle tail).
func TestCrashAtEveryWriteBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	boundaries := []string{"journal.seq", "journal.spec", "journal.status", "pack.append", "pack.index"}
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
				// store's own.
				if info := waitSettled(t, j); info.Status != JobDone {
					t.Fatalf("job under injected write failures = %+v", info)
				}
				if strings.HasPrefix(crashAt, "journal.") && js1.Stats().JournalErrors == 0 {
					t.Fatal("failed journal writes were not counted")
				}
				if store1.PackStats().Errors == 0 {
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
			store2 := open(t, dir)
			jl2, err := NewJournal(filepath.Join(dir, "jobs"))
			if err != nil {
				t.Fatal(err)
			}
			js2 := NewJobs(NewEngine(WithStore(store2)), 2, 0, jl2)
			resumed := js2.Recover()

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
			case "pack.append", "pack.index":
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
				if err := jl.RecordStatus("job-000001", journalStatus{
					Status: JobInterrupted, Completed: stored,
				}); err != nil {
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
