package exp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/api"
)

// pollJob GETs a job's status until it reaches a terminal state.
func pollJob(t *testing.T, h http.Handler, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := doRequest(t, h, http.MethodGet, "/v1/jobs/"+id, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("job status = %d: %s", rec.Code, rec.Body)
		}
		var info JobInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if api.JobTerminal(info.Status) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, info.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobLifecycle drives the full submit → poll → stream contract: a
// spec submitted as a job produces, line for line, the same RunResults as
// the synchronous POST /v1/run, with a 202 + Location up front and a
// terminal status document at the end.
func TestJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	srv := NewServer(NewEngine(), WithWorkers(2))
	h := srv.Handler()
	spec := `{
		"scenario": "covert-pnm",
		"grid": {"llc_bytes": [4194304, 8388608]}
	}`

	sub := doRequest(t, h, http.MethodPost, "/v1/jobs", spec)
	if sub.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", sub.Code, sub.Body)
	}
	var queued JobInfo
	if err := json.Unmarshal(sub.Body.Bytes(), &queued); err != nil {
		t.Fatal(err)
	}
	if queued.ID == "" || queued.Runs != 2 {
		t.Fatalf("queued info: %+v", queued)
	}
	if loc := sub.Header().Get("Location"); loc != "/v1/jobs/"+queued.ID {
		t.Fatalf("Location = %q", loc)
	}

	done := pollJob(t, h, queued.ID)
	if done.Status != JobDone || done.Completed != 2 || done.Error != "" {
		t.Fatalf("terminal info: %+v", done)
	}
	if done.Hits != 0 || done.Misses != 2 {
		t.Fatalf("cold job hits=%d misses=%d, want 0/2", done.Hits, done.Misses)
	}
	if done.SpecKey == "" {
		t.Fatal("terminal info missing spec_key")
	}

	// The stream replays every RunResult as NDJSON, in expansion order,
	// byte-identical to the runs the synchronous API returns.
	runRes := doRequest(t, h, http.MethodPost, "/v1/run", spec)
	var sweep SweepResult
	if err := json.Unmarshal(runRes.Body.Bytes(), &sweep); err != nil {
		t.Fatal(err)
	}
	stream := doRequest(t, h, http.MethodGet, "/v1/jobs/"+queued.ID+"/stream", "")
	if stream.Code != http.StatusOK {
		t.Fatalf("stream = %d: %s", stream.Code, stream.Body)
	}
	if ct := stream.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSuffix(stream.Body.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines, want 2:\n%s", len(lines), stream.Body)
	}
	for i, line := range lines {
		want, err := json.Marshal(sweep.Runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if line != string(want) {
			t.Fatalf("stream line %d:\n got %s\nwant %s", i, line, want)
		}
	}

	// A repeated job is served from cache and says so.
	again := doRequest(t, h, http.MethodPost, "/v1/jobs", spec)
	var queued2 JobInfo
	if err := json.Unmarshal(again.Body.Bytes(), &queued2); err != nil {
		t.Fatal(err)
	}
	warm := pollJob(t, h, queued2.ID)
	if warm.Hits != 2 || warm.Misses != 0 {
		t.Fatalf("warm job hits=%d misses=%d, want 2/0", warm.Hits, warm.Misses)
	}

	// Unknown jobs and malformed specs fail loudly.
	if rec := doRequest(t, h, http.MethodGet, "/v1/jobs/job-999999", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", rec.Code)
	}
	if rec := doRequest(t, h, http.MethodGet, "/v1/jobs/job-999999/stream", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job stream = %d, want 404", rec.Code)
	}
	if rec := doRequest(t, h, http.MethodPost, "/v1/jobs", `{"scenario": "covert-warp"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown scenario job = %d, want 404", rec.Code)
	}
	if rec := doRequest(t, h, http.MethodPost, "/v1/jobs", `{"scenario": `); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed job spec = %d, want 400", rec.Code)
	}
}

// TestJobsConcurrentLifecycle is the acceptance-criteria test for the
// async API: 8 concurrent clients each run the full submit → stream →
// poll lifecycle for one spec, every stream is byte-identical, and the
// deduped cache still simulated each unique run exactly once. Run under
// -race via make race.
func TestJobsConcurrentLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	srv := NewServer(NewEngine(), WithWorkers(2))
	h := srv.Handler()
	spec := `{
		"scenario": "covert-pnm",
		"grid": {"llc_bytes": [4194304, 8388608]}
	}`
	const workers = 8

	start := make(chan struct{})
	var wg sync.WaitGroup
	streams := make([][]byte, workers)
	failures := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sub := doRequest(t, h, http.MethodPost, "/v1/jobs", spec)
			if sub.Code != http.StatusAccepted {
				failures[i] = fmt.Errorf("submit = %d: %s", sub.Code, sub.Body)
				return
			}
			var info JobInfo
			if err := json.Unmarshal(sub.Body.Bytes(), &info); err != nil {
				failures[i] = err
				return
			}
			// Stream first: it blocks until every run lands, which also
			// exercises WaitRun against live execution.
			stream := doRequest(t, h, http.MethodGet, "/v1/jobs/"+info.ID+"/stream", "")
			if stream.Code != http.StatusOK {
				failures[i] = fmt.Errorf("stream = %d", stream.Code)
				return
			}
			streams[i] = stream.Body.Bytes()
			final := pollJob(t, h, info.ID)
			if final.Status != JobDone || final.Completed != 2 {
				failures[i] = fmt.Errorf("terminal info: %+v", final)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range failures {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 1; i < workers; i++ {
		if !bytes.Equal(streams[i], streams[0]) {
			t.Fatalf("worker %d stream differs from worker 0", i)
		}
	}
	if c := srv.engine.Cache().Stats().Computes; c != 2 {
		t.Fatalf("computes = %d, want exactly one simulation per unique run (2)", c)
	}
	st := srv.jobs.Stats()
	if st.Submitted != workers || st.Completed != workers || st.Failed != 0 {
		t.Fatalf("job stats: %+v", st)
	}
}

// blockRun parks all computations of key behind a manually controlled
// flight entry, returning a release function that resolves every waiter
// with the given blob or error. The resolved entry is left in the flight
// map so a Compute arriving after release still sees the synthetic
// result instead of simulating. This makes "a job that is still running"
// (and "a run that failed") a deterministic state instead of a race
// against the simulator.
func blockRun(eng *Engine, key string) (release func(blob json.RawMessage, err error)) {
	call := &flightCall{done: make(chan struct{})}
	eng.cache.flightMu.Lock()
	eng.cache.flight[key] = call
	eng.cache.flightMu.Unlock()
	return func(blob json.RawMessage, err error) {
		call.blob, call.err = blob, err
		if err == nil {
			// Mirror a real Compute leader, which stores its result before
			// waking waiters: job streams rebuild their lines from the cache.
			eng.cache.Put(context.Background(), key, blob)
		}
		close(call.done)
	}
}

// TestJobsRegistryBound pins the FIFO retirement contract: terminal jobs
// retire oldest-first to admit new submissions, while a registry full of
// live jobs rejects with 429 rather than evicting work in progress.
func TestJobsRegistryBound(t *testing.T) {
	eng := NewEngine()
	jobs := NewJobs(eng, 1, 1, nil)
	spec, err := ParseSpec([]byte(`{"scenario": "rowbuffer"}`))
	if err != nil {
		t.Fatal(err)
	}
	runs := expandAll(t, spec)
	release := blockRun(eng, runs[0].Key)

	// Job A blocks inside its single run; the registry (max 1) is now full
	// of non-terminal work, so a second submission must be rejected — A
	// cannot terminate while the flight entry is held, making this
	// deterministic rather than a race against the simulator.
	a, err := jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobs.Submit(spec); err == nil {
		t.Fatal("submit into a full live registry accepted")
	} else if status, code := statusFor(err); status != http.StatusTooManyRequests || code != api.CodeTooManyJobs {
		t.Fatalf("submit into a full live registry: status=%d code=%s (%v)", status, code, err)
	}

	release(json.RawMessage(`{"id":"fake"}`), nil)
	deadline := time.Now().Add(10 * time.Second)
	for !a.terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job A never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if info := a.Info(); info.Status != JobDone || info.Completed != 1 {
		t.Fatalf("job A terminal info: %+v", info)
	}

	// With A terminal, the next submission retires it FIFO.
	b, err := jobs.Submit(spec)
	if err != nil {
		t.Fatalf("submit after A finished: %v", err)
	}
	if _, ok := jobs.Get(a.ID); ok {
		t.Fatal("terminal job A not retired to admit B")
	}
	if _, ok := jobs.Get(b.ID); !ok {
		t.Fatal("job B missing from the registry")
	}
	st := jobs.Stats()
	if st.Rejected != 1 || st.Retired != 1 || st.Tracked != 1 {
		t.Fatalf("registry stats: %+v", st)
	}
}

// TestJobStreamFlushesIncrementally is the regression test for the
// statusRecorder flush passthrough: a client of the instrumented stream
// route must receive each NDJSON line as its run completes — over a real
// connection, before the job finishes — not buffered until the end.
func TestJobStreamFlushesIncrementally(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng, WithWorkers(1))
	spec, err := ParseSpec([]byte(`{
		"scenario": "covert-pnm",
		"grid": {"llc_bytes": [4194304, 8388608]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	runs := expandAll(t, spec)
	// Run 0 is a synthetic cache hit, run 1 is parked: the job emits its
	// first result immediately and then stays running until released.
	fakeA := json.RawMessage(`{"id":"fake-a"}`)
	fakeB := json.RawMessage(`{"id":"fake-b"}`)
	eng.cache.Put(context.Background(), runs[0].Key, fakeA)
	release := blockRun(eng, runs[1].Key)

	job, err := srv.jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The first line must arrive while run 1 is still blocked. Without
	// Flush forwarding through the metrics middleware it would sit in the
	// server's buffer until the job completed, and this read would hang.
	type lineOrErr struct {
		line string
		err  error
	}
	rd := bufio.NewReader(resp.Body)
	readLine := make(chan lineOrErr, 2)
	go func() {
		for i := 0; i < 2; i++ {
			line, err := rd.ReadString('\n')
			readLine <- lineOrErr{line, err}
		}
	}()
	select {
	case got := <-readLine:
		if got.err != nil {
			t.Fatalf("reading first stream line: %v", got.err)
		}
		var rr RunResult
		if err := json.Unmarshal([]byte(got.line), &rr); err != nil {
			t.Fatalf("first line not a RunResult: %v (%q)", err, got.line)
		}
		if !bytes.Equal(rr.Report, fakeA) {
			t.Fatalf("first line report = %s", rr.Report)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first stream line never flushed while the job was still running")
	}

	release(fakeB, nil)
	select {
	case got := <-readLine:
		if got.err != nil {
			t.Fatalf("reading second stream line: %v", got.err)
		}
		var rr RunResult
		if err := json.Unmarshal([]byte(got.line), &rr); err != nil {
			t.Fatalf("second line not a RunResult: %v (%q)", err, got.line)
		}
		if !bytes.Equal(rr.Report, fakeB) {
			t.Fatalf("second line report = %s", rr.Report)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second stream line never arrived after release")
	}
}

// TestJobStreamFailedSweep pins the failure contract: the stream carries
// every run that did finish — including runs that completed after the
// failing one — followed by a single {"error": ...} line, rather than
// truncating at the first unfinished index.
func TestJobStreamFailedSweep(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng, WithWorkers(1))
	spec, err := ParseSpec([]byte(`{
		"scenario": "covert-pnm",
		"grid": {"llc_bytes": [4194304, 8388608, 16777216]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	runs := expandAll(t, spec)
	// Run 0 is a synthetic cache hit, run 1 fails, run 2 still completes
	// (the pool drains every queued run even after an earlier error).
	fakeA := json.RawMessage(`{"id":"fake-a"}`)
	fakeC := json.RawMessage(`{"id":"fake-c"}`)
	eng.cache.Put(context.Background(), runs[0].Key, fakeA)
	blockRun(eng, runs[1].Key)(nil, fmt.Errorf("synthetic run failure"))
	blockRun(eng, runs[2].Key)(fakeC, nil)

	job, err := srv.jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	final := pollJob(t, h, job.ID)
	if final.Status != JobFailed || final.Completed != 2 {
		t.Fatalf("terminal info: %+v", final)
	}
	if !strings.Contains(final.Error, "synthetic run failure") {
		t.Fatalf("terminal error = %q", final.Error)
	}

	stream := doRequest(t, h, http.MethodGet, "/v1/jobs/"+job.ID+"/stream", "")
	lines := strings.Split(strings.TrimSuffix(stream.Body.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("stream has %d lines, want 2 results + 1 error:\n%s", len(lines), stream.Body)
	}
	var rr RunResult
	if err := json.Unmarshal([]byte(lines[0]), &rr); err != nil || !bytes.Equal(rr.Report, fakeA) {
		t.Fatalf("line 0 = %q (%v)", lines[0], err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rr); err != nil || !bytes.Equal(rr.Report, fakeC) {
		t.Fatalf("line 1 should be the run that finished after the failure, got %q (%v)", lines[1], err)
	}
	var tail api.Envelope
	if err := json.Unmarshal([]byte(lines[2]), &tail); err != nil || tail.Err == nil {
		t.Fatalf("trailing line = %q (%v)", lines[2], err)
	}
	if tail.Err.Code != api.CodeRunFailed || !strings.Contains(tail.Err.Message, "synthetic run failure") {
		t.Fatalf("trailing error line = %+v, want code run_failed mentioning the failure", tail.Err)
	}
}

// flushRecorder counts flushes and the body length at each, so a test
// can see whether writes were flushed incrementally.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushedAt []int
}

func (f *flushRecorder) Flush() {
	f.flushedAt = append(f.flushedAt, f.Body.Len())
}

// TestInstrumentForwardsFlush pins the middleware contract directly: a
// handler behind instrument can reach the underlying Flusher both via a
// type assertion and via http.ResponseController (which unwraps).
func TestInstrumentForwardsFlush(t *testing.T) {
	srv := NewServer(NewEngine(), WithWorkers(1))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h := srv.instrument(routeRun, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("first"))
		fl, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("instrumented writer lost http.Flusher")
		}
		fl.Flush()
		w.Write([]byte("second"))
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Fatalf("ResponseController flush: %v", err)
		}
	})
	h(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	want := []int{len("first"), len("firstsecond")}
	if len(rec.flushedAt) != 2 || rec.flushedAt[0] != want[0] || rec.flushedAt[1] != want[1] {
		t.Fatalf("flush points = %v, want %v", rec.flushedAt, want)
	}
}
