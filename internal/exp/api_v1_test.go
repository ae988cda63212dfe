package exp

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pkg/api"
)

// decodeErrorBody parses a structured error response, failing the test on
// anything that is not a well-formed api.Envelope.
func decodeErrorBody(t *testing.T, body []byte) *api.Error {
	t.Helper()
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Err == nil {
		t.Fatalf("error body is not an api.Envelope: %v (%s)", err, body)
	}
	return env.Err
}

// TestErrorEnvelopeCodes pins the structured error contract: every error
// response is {"error": {"code", "message"}} with the documented code.
func TestErrorEnvelopeCodes(t *testing.T) {
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 api.ErrorCode
	}{
		{"malformed spec", http.MethodPost, "/v1/run", `{"scenario": `, http.StatusBadRequest, api.CodeInvalidSpec},
		{"unknown scenario", http.MethodPost, "/v1/run", `{"scenario": "covert-warp"}`, http.StatusNotFound, api.CodeUnknownScenario},
		{"unknown figure", http.MethodGet, "/v1/figures/nope", "", http.StatusNotFound, api.CodeUnknownScenario},
		{"unknown job", http.MethodGet, "/v1/jobs/job-999999", "", http.StatusNotFound, api.CodeUnknownJob},
		{"unknown job cancel", http.MethodDelete, "/v1/jobs/job-999999", "", http.StatusNotFound, api.CodeUnknownJob},
		{"bad list limit", http.MethodGet, "/v1/jobs?limit=zero", "", http.StatusBadRequest, api.CodeBadRequest},
		{"bad page token", http.MethodGet, "/v1/jobs?page_token=banana", "", http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doRequest(t, h, tc.method, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.wantStatus, rec.Body)
			}
			apiErr := decodeErrorBody(t, rec.Body.Bytes())
			if apiErr.Code != tc.wantCode || apiErr.Message == "" {
				t.Fatalf("error = %+v, want code %q with a message", apiErr, tc.wantCode)
			}
		})
	}

	// Oversized specs carry their own code.
	huge := `{"scenario": "rowbuffer", "config": {` + strings.Repeat(" ", maxSpecBytes) + `}}`
	rec := doRequest(t, h, http.MethodPost, "/v1/run", huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec = %d, want 413", rec.Code)
	}
	if apiErr := decodeErrorBody(t, rec.Body.Bytes()); apiErr.Code != api.CodeSpecTooLarge {
		t.Fatalf("oversized spec code = %q, want spec_too_large", apiErr.Code)
	}
}

// TestContentTypeGate pins the 415 contract: POST bodies must be JSON (or
// carry no Content-Type at all, for curl ergonomics).
func TestContentTypeGate(t *testing.T) {
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()
	post := func(path, contentType string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"scenario": "rowbuffer"}`))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	for _, path := range []string{"/v1/run", "/v1/jobs"} {
		for _, bad := range []string{"text/plain", "application/x-www-form-urlencoded", "application/octet-stream", "not a media type"} {
			rec := post(path, bad)
			if rec.Code != http.StatusUnsupportedMediaType {
				t.Fatalf("POST %s with %q = %d, want 415", path, bad, rec.Code)
			}
			if apiErr := decodeErrorBody(t, rec.Body.Bytes()); apiErr.Code != api.CodeUnsupportedMedia {
				t.Fatalf("POST %s with %q code = %q", path, bad, apiErr.Code)
			}
		}
		for _, good := range []string{"", "application/json", "application/json; charset=utf-8", "application/merge-patch+json"} {
			if rec := post(path, good); rec.Code == http.StatusUnsupportedMediaType {
				t.Fatalf("POST %s with Content-Type %q rejected with 415", path, good)
			}
		}
	}
}

// TestRequestIDHeader pins the X-Request-ID contract: every response —
// including observability endpoints and errors — carries one; sane
// inbound IDs are echoed, junk is replaced.
func TestRequestIDHeader(t *testing.T) {
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()
	for _, path := range []string{"/healthz", "/v1/metrics", "/v1/scenarios", "/v1/jobs", "/v1/figures/nope"} {
		rec := doRequest(t, h, http.MethodGet, path, "")
		if id := rec.Header().Get(api.HeaderRequestID); id == "" {
			t.Fatalf("GET %s response missing %s", path, api.HeaderRequestID)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(api.HeaderRequestID, "trace-abc-123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(api.HeaderRequestID); got != "trace-abc-123" {
		t.Fatalf("inbound request ID not echoed: %q", got)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(api.HeaderRequestID, "has spaces and\ttabs")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(api.HeaderRequestID); got == "" || strings.ContainsAny(got, " \t") {
		t.Fatalf("junk inbound ID not replaced: %q", got)
	}

	// Two generated IDs differ (they are random, not a shared constant).
	a := doRequest(t, h, http.MethodGet, "/healthz", "").Header().Get(api.HeaderRequestID)
	b := doRequest(t, h, http.MethodGet, "/healthz", "").Header().Get(api.HeaderRequestID)
	if a == b {
		t.Fatalf("consecutive generated request IDs identical: %q", a)
	}
}

// TestHealthzBuildInfo pins the satellite contract: /healthz carries
// version and go fields from the embedded build info and the node's
// cluster identity (node_id, store backend, peer count), alongside the
// stable status + cache counters. A server given no identity reports
// the solo defaults.
func TestHealthzBuildInfo(t *testing.T) {
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()
	rec := doRequest(t, h, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var health api.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("status = %q", health.Status)
	}
	if health.Version == "" {
		t.Fatal("healthz missing version")
	}
	if !strings.HasPrefix(health.Go, "go") {
		t.Fatalf("healthz go = %q, want a go toolchain version", health.Go)
	}
	if health.NodeID != "solo" || health.Store != "memory" || health.Peers != 0 {
		t.Fatalf("default identity = %q/%q/%d, want solo/memory/0",
			health.NodeID, health.Store, health.Peers)
	}

	// The raw body carries the identity fields under their wire names.
	for _, field := range []string{`"node_id":"solo"`, `"store":"memory"`, `"peers":0`} {
		if !strings.Contains(rec.Body.String(), field) {
			t.Fatalf("healthz body missing %s: %s", field, rec.Body.String())
		}
	}

	// A configured identity is surfaced verbatim.
	h = NewServer(NewEngine(), WithWorkers(1), WithNodeIdentity("n2", "pack", 2)).Handler()
	rec = doRequest(t, h, http.MethodGet, "/healthz", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.NodeID != "n2" || health.Store != "pack" || health.Peers != 2 {
		t.Fatalf("identity = %q/%q/%d, want n2/pack/2", health.NodeID, health.Store, health.Peers)
	}
}

// TestPeerResultEndpoints pins the internal peer wire contract: PUT
// stores a blob into the node's local tiers, GET serves it back framed
// exactly like every other JSON body (blob + one newline), a malformed
// key is a 400 before any store work, an absent key is a 404 with code
// result_not_found, and non-JSON replica payloads are refused.
func TestPeerResultEndpoints(t *testing.T) {
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()
	key := strings.Repeat("ab", 32)
	blob := `{"report":{"v":1}}`

	for _, bad := range []string{"short", strings.Repeat("g", 64), strings.Repeat("AB", 32)} {
		rec := doRequest(t, h, http.MethodGet, "/v1/internal/results/"+bad, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET with key %q = %d, want 400", bad, rec.Code)
		}
	}

	rec := doRequest(t, h, http.MethodGet, "/v1/internal/results/"+key, "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET absent key = %d, want 404", rec.Code)
	}
	var env api.Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Err == nil {
		t.Fatalf("404 body is not an error envelope: %s", rec.Body.String())
	}
	if env.Err.Code != api.CodeResultNotFound {
		t.Fatalf("miss code = %q, want result_not_found", env.Err.Code)
	}

	if rec := doRequest(t, h, http.MethodPut, "/v1/internal/results/"+key, `{"broken`); rec.Code != http.StatusBadRequest {
		t.Fatalf("PUT invalid JSON = %d, want 400", rec.Code)
	}

	if rec := doRequest(t, h, http.MethodPut, "/v1/internal/results/"+key, blob); rec.Code != http.StatusOK {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body.String())
	}
	rec = doRequest(t, h, http.MethodGet, "/v1/internal/results/"+key, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET after PUT = %d", rec.Code)
	}
	if got := rec.Body.String(); got != blob+"\n" {
		t.Fatalf("round-tripped body %q, want %q + newline", got, blob)
	}
}

// fakeReport pre-resolves every run of a spec with a synthetic report, so
// jobs over it complete instantly and deterministically without touching
// the simulator.
func fakeReport(t *testing.T, eng *Engine, rawSpec string) Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(rawSpec))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range expandAll(t, spec) {
		eng.cache.Put(context.Background(), r.Key, json.RawMessage(`{"id":"fake"}`))
	}
	return spec
}

// TestJobListPagination pins GET /v1/jobs: newest-first order, limit
// clamping, and the page-token walk down to an empty token.
func TestJobListPagination(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng, WithWorkers(1))
	h := srv.Handler()
	fakeReport(t, eng, `{"scenario": "rowbuffer"}`)

	const total = 5
	for i := 0; i < total; i++ {
		if rec := doRequest(t, h, http.MethodPost, "/v1/jobs", `{"scenario": "rowbuffer"}`); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, rec.Code, rec.Body)
		}
	}

	list := func(query string) api.JobPage {
		rec := doRequest(t, h, http.MethodGet, "/v1/jobs"+query, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("list %q = %d: %s", query, rec.Code, rec.Body)
		}
		var page api.JobPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	// Default page: all five, newest first, no continuation.
	page := list("")
	if len(page.Jobs) != total || page.NextPageToken != "" {
		t.Fatalf("default page: %d jobs, token %q", len(page.Jobs), page.NextPageToken)
	}
	for i, info := range page.Jobs {
		if want := formatJobID(total - i); info.ID != want {
			t.Fatalf("position %d = %s, want %s (newest first)", i, info.ID, want)
		}
	}

	// Token walk: 2 + 2 + 1, token emptying exactly at the end.
	var ids []string
	token := ""
	for pages := 0; ; pages++ {
		if pages > total {
			t.Fatal("pagination never terminated")
		}
		q := "?limit=2"
		if token != "" {
			q += "&page_token=" + token
		}
		page := list(q)
		for _, info := range page.Jobs {
			ids = append(ids, info.ID)
		}
		if token = page.NextPageToken; token == "" {
			break
		}
	}
	want := []string{"job-000005", "job-000004", "job-000003", "job-000002", "job-000001"}
	if len(ids) != len(want) {
		t.Fatalf("paged walk saw %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("paged walk saw %v, want %v", ids, want)
		}
	}

	// A token whose job was never issued is a 400, not an empty page.
	if rec := doRequest(t, h, http.MethodGet, "/v1/jobs?page_token=job-1", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-canonical token = %d, want 400", rec.Code)
	}
}

// TestJobRetiredGone pins the 410 contract: a FIFO-retired job answers
// 410 with code job_retired — distinguishable from a never-issued ID's
// 404 — including on the stream and cancel routes.
func TestJobRetiredGone(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng, WithWorkers(1), WithMaxJobs(1))
	h := srv.Handler()
	fakeReport(t, eng, `{"scenario": "rowbuffer"}`)

	sub := doRequest(t, h, http.MethodPost, "/v1/jobs", `{"scenario": "rowbuffer"}`)
	var first JobInfo
	if err := json.Unmarshal(sub.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	pollJob(t, h, first.ID)

	// The registry holds one job; the next submission retires the first.
	if rec := doRequest(t, h, http.MethodPost, "/v1/jobs", `{"scenario": "rowbuffer"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("second submit = %d: %s", rec.Code, rec.Body)
	}

	for _, tc := range []struct{ name, method, path string }{
		{"status", http.MethodGet, "/v1/jobs/" + first.ID},
		{"stream", http.MethodGet, "/v1/jobs/" + first.ID + "/stream"},
		{"cancel", http.MethodDelete, "/v1/jobs/" + first.ID},
	} {
		rec := doRequest(t, h, tc.method, tc.path, "")
		if rec.Code != http.StatusGone {
			t.Fatalf("%s on retired job = %d, want 410 (%s)", tc.name, rec.Code, rec.Body)
		}
		if apiErr := decodeErrorBody(t, rec.Body.Bytes()); apiErr.Code != api.CodeJobRetired {
			t.Fatalf("%s on retired job code = %q, want job_retired", tc.name, apiErr.Code)
		}
	}

	// Never-issued IDs are still plain 404s.
	if rec := doRequest(t, h, http.MethodGet, "/v1/jobs/job-999999", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", rec.Code)
	}
}

// TestJobCancelLifecycle drives the DELETE contract deterministically: a
// job parked mid-sweep is canceled, reaches the terminal canceled state
// once its in-flight run drains, streams its finished runs plus a
// job_canceled error line, and further DELETEs are idempotent.
func TestJobCancelLifecycle(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng, WithWorkers(1))
	h := srv.Handler()
	spec, err := ParseSpec([]byte(`{
		"scenario": "covert-pnm",
		"grid": {"llc_bytes": [4194304, 8388608]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	runs := expandAll(t, spec)
	// Run 0 is a synthetic cache hit (counted when its worker probes the
	// cache); run 1 parks inside the worker until released. Waiting for completed
	// == 1 therefore pins the exact sweep phase the DELETE races against:
	// one run done, one in flight.
	fakeA := json.RawMessage(`{"id":"fake-a"}`)
	eng.cache.Put(context.Background(), runs[0].Key, fakeA)
	release := blockRun(eng, runs[1].Key)

	sub := doRequest(t, h, http.MethodPost, "/v1/jobs", `{
		"scenario": "covert-pnm",
		"grid": {"llc_bytes": [4194304, 8388608]}
	}`)
	if sub.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", sub.Code, sub.Body)
	}
	var queued JobInfo
	if err := json.Unmarshal(sub.Body.Bytes(), &queued); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := doRequest(t, h, http.MethodGet, "/v1/jobs/"+queued.ID, "")
		var info JobInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.Completed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached the parked phase: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}

	del := doRequest(t, h, http.MethodDelete, "/v1/jobs/"+queued.ID, "")
	if del.Code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", del.Code, del.Body)
	}
	var atCancel JobInfo
	if err := json.Unmarshal(del.Body.Bytes(), &atCancel); err != nil {
		t.Fatal(err)
	}
	if api.JobTerminal(atCancel.Status) {
		t.Fatalf("cancel response already terminal (%q) while a run is parked", atCancel.Status)
	}

	// The parked run drains — cancellation never abandons in-flight work —
	// and the job must still land in canceled, not done. The DELETE races
	// the worker's claim of run 1: a claimed run completes (completed=2),
	// an unclaimed one is skipped (completed=1); both are clean cancels.
	release(json.RawMessage(`{"id":"fake-b"}`), nil)
	final := pollJob(t, h, queued.ID)
	if final.Status != JobCanceled {
		t.Fatalf("terminal status = %q, want canceled", final.Status)
	}
	if final.Completed < 1 || final.Completed > 2 || final.Hits != 1 || final.SpecKey != "" {
		t.Fatalf("terminal info: %+v", final)
	}
	if !strings.Contains(final.Error, "canceled") {
		t.Fatalf("terminal error = %q", final.Error)
	}

	// The stream replays every finished run, then the canceled line.
	stream := doRequest(t, h, http.MethodGet, "/v1/jobs/"+queued.ID+"/stream", "")
	lines := strings.Split(strings.TrimSuffix(stream.Body.String(), "\n"), "\n")
	if len(lines) != final.Completed+1 {
		t.Fatalf("stream has %d lines, want %d results + 1 error:\n%s", len(lines), final.Completed, stream.Body)
	}
	var rr RunResult
	if err := json.Unmarshal([]byte(lines[0]), &rr); err != nil || rr.Key != runs[0].Key {
		t.Fatalf("line 0 = %q (%v)", lines[0], err)
	}
	var tail api.Envelope
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil || tail.Err == nil || tail.Err.Code != api.CodeJobCanceled {
		t.Fatalf("trailing line = %q, want a job_canceled envelope", lines[len(lines)-1])
	}

	// Canceling a terminal job is an idempotent no-op.
	again := doRequest(t, h, http.MethodDelete, "/v1/jobs/"+queued.ID, "")
	if again.Code != http.StatusOK {
		t.Fatalf("second cancel = %d", again.Code)
	}
	var afterAgain JobInfo
	if err := json.Unmarshal(again.Body.Bytes(), &afterAgain); err != nil {
		t.Fatal(err)
	}
	if afterAgain.Status != JobCanceled || afterAgain.Completed != final.Completed {
		t.Fatalf("second cancel info: %+v", afterAgain)
	}

	st := srv.jobs.Stats()
	if st.Canceled != 1 || st.Failed != 0 || st.Completed != 0 {
		t.Fatalf("job stats after cancel: %+v", st)
	}
}

// TestEngineRunSpecCanceledContext pins the synchronous cancellation
// path: a canceled context fails the sweep with ErrSweepCanceled before
// (or during) scheduling, never with a partial result.
func TestEngineRunSpecCanceledContext(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"scenario": "rowbuffer"}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewEngine().RunSpec(ctx, spec, 1)
	if res != nil || !errors.Is(err, ErrSweepCanceled) {
		t.Fatalf("RunSpec with canceled ctx = (%v, %v), want ErrSweepCanceled", res, err)
	}
}

// TestJobCancelRaceEightWorkers is the acceptance-criteria stress: DELETE
// while 8 workers are completing runs must land every job in a clean
// terminal state (canceled or done, depending on who wins) with
// consistent counts, never a wedged or torn job. Run under -race via
// make race.
func TestJobCancelRaceEightWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	eng := NewEngine()
	srv := NewServer(eng, WithWorkers(8))
	h := srv.Handler()
	spec := `{
		"scenario": "covert-pnm",
		"grid": {"llc_bytes": [2097152, 4194304, 8388608, 16777216], "mem.defense": ["none", "ctd"]}
	}`

	for round := 0; round < 4; round++ {
		sub := doRequest(t, h, http.MethodPost, "/v1/jobs", spec)
		if sub.Code != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", sub.Code, sub.Body)
		}
		var queued JobInfo
		if err := json.Unmarshal(sub.Body.Bytes(), &queued); err != nil {
			t.Fatal(err)
		}
		// Vary the cancel point across rounds so the DELETE races
		// different phases of the sweep.
		time.Sleep(time.Duration(round) * 2 * time.Millisecond)
		if rec := doRequest(t, h, http.MethodDelete, "/v1/jobs/"+queued.ID, ""); rec.Code != http.StatusOK {
			t.Fatalf("cancel = %d: %s", rec.Code, rec.Body)
		}
		final := pollJob(t, h, queued.ID)
		switch final.Status {
		case JobCanceled:
			if final.Completed > final.Runs || final.SpecKey != "" {
				t.Fatalf("canceled job inconsistent: %+v", final)
			}
		case JobDone:
			if final.Completed != final.Runs || final.SpecKey == "" {
				t.Fatalf("done job inconsistent: %+v", final)
			}
		default:
			t.Fatalf("terminal status = %q", final.Status)
		}
		if final.Hits+final.Misses != final.Completed {
			t.Fatalf("cache counts inconsistent: %+v", final)
		}
	}
}
