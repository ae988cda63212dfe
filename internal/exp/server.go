package exp

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/pkg/api"
)

// maxSpecBytes bounds POST /v1/run and POST /v1/jobs request bodies.
const maxSpecBytes = 1 << 20

// Server serves experiment reports over HTTP from a shared Engine,
// speaking the typed v1 wire contract defined in pkg/api: request and
// response bodies are pkg/api documents, and every error is a structured
// api.Envelope with a stable code. Because every report is deterministic
// and content-addressed, responses for one spec are byte-identical across
// requests; the X-Cache headers and X-Request-ID are the only
// request-dependent surface.
//
//	POST   /v1/run              run a Spec document, returns the SweepResult
//	POST   /v1/jobs             enqueue a Spec as an async job, returns 202
//	GET    /v1/jobs             list tracked jobs, newest-first, paginated
//	GET    /v1/jobs/{id}        job status + per-run progress counts
//	DELETE /v1/jobs/{id}        cancel a job (idempotent; terminal state "canceled")
//	GET    /v1/jobs/{id}/stream RunResults as NDJSON while the sweep executes
//	GET    /v1/figures/{id}     run one registry scenario, returns its Report
//	GET    /v1/scenarios        list runnable scenarios
//	GET    /v1/metrics          per-route counters + cache/pack/job stats
//	GET    /healthz             liveness + build info + cache counters
//
// Experiment routes run behind a metrics middleware that records request
// counts, error counts, and a latency histogram per route; /healthz and
// /v1/metrics are deliberately outside it, so scraping observability
// endpoints never pollutes the result cache or the experiment counters.
type Server struct {
	engine  *Engine
	workers int
	maxJobs int
	journal *Journal
	jobs    *Jobs
	met     *metrics.Groups

	// Cluster identity, surfaced on /healthz; peers > 0 also mounts the
	// internal peer routes (see WithNodeIdentity).
	nodeID    string
	storeKind string
	peers     int
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithWorkers bounds each request's (and each job's) simulation pool
// (0, the default, selects all cores).
func WithWorkers(n int) ServerOption {
	return func(s *Server) { s.workers = n }
}

// WithMaxJobs bounds the async job registry (<= 0, the default, selects
// DefaultMaxJobs).
func WithMaxJobs(n int) ServerOption {
	return func(s *Server) { s.maxJobs = n }
}

// WithJournal makes the job registry durable: accepted jobs persist to
// the journal, and NewServer replays it — re-enqueueing every job a
// previous process left unfinished — before the server takes traffic.
func WithJournal(jl *Journal) ServerOption {
	return func(s *Server) { s.journal = jl }
}

// WithNodeIdentity names this node for /healthz: its cluster node ID,
// the configured store backend ("memory" or "pack"), and how many
// peers its ring knows about (0, the default, for a solo node). The
// peer count also gates the internal peer routes: Handler mounts
// GET and PUT /v1/internal/results/{key} only when it is above 0, so a
// solo node answers 404 there and no client can plant a result in its
// store. Placement and routing live in the cluster store, not the HTTP
// layer.
func WithNodeIdentity(nodeID, storeKind string, peers int) ServerOption {
	return func(s *Server) { s.nodeID, s.storeKind, s.peers = nodeID, storeKind, peers }
}

// NewServer wraps an engine with the v1 HTTP surface; see WithWorkers,
// WithMaxJobs, and WithJournal for the tunables. With a journal attached,
// recovery runs here: by the time NewServer returns, interrupted jobs are
// already executing again.
func NewServer(engine *Engine, opts ...ServerOption) *Server {
	s := &Server{engine: engine, nodeID: "solo", storeKind: "memory"}
	for _, opt := range opts {
		opt(s)
	}
	s.jobs = NewJobs(engine, s.workers, s.maxJobs, s.journal)
	s.jobs.Recover()
	s.met = metrics.NewGroups(routeNames, []string{"requests", "errors"},
		"latency_ns", metrics.LatencyBounds())
	return s
}

// Shutdown gracefully drains the server's background work: new job
// submissions are rejected with 503 shutting_down, live jobs are
// interrupted (in-flight runs finish and land in the durable store, the
// journal records a resumable interrupted state), and Shutdown returns
// once every job goroutine has flushed — or ctx expires. Call before the
// HTTP listener's own Shutdown: quiescing first unblocks any job streams
// still holding connections open.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobs.Quiesce(ctx)
}

// JobsStats snapshots the job registry counters (for post-recovery
// logging in cmd/impact-server).
func (s *Server) JobsStats() JobsStats { return s.jobs.Stats() }

// routeID labels the instrumented routes, in the counter slot order built
// in NewServer.
type routeID int

const (
	routeRun routeID = iota
	routeFigure
	routeScenarios
	routeJobSubmit
	routeJobList
	routeJobStatus
	routeJobCancel
	routeJobStream
	routePeerGet
	routePeerPut
	routeCount
)

// routeNames are the stable labels used in the /v1/metrics document.
var routeNames = []string{
	"run", "figure", "scenarios", "job_submit", "job_list", "job_status",
	"job_cancel", "job_stream", "peer_get", "peer_put",
}

// Per-route counter slots inside the metrics.Groups blocks.
const (
	slotRequests = iota
	slotErrors
)

// Handler returns the route table, wrapped so every response — including
// the uninstrumented observability endpoints — carries an X-Request-ID.
// The internal peer routes exist only on a node with peers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/scenarios", s.instrument(routeScenarios, s.handleScenarios))
	mux.HandleFunc("POST /v1/run", s.instrument(routeRun, s.handleRun))
	mux.HandleFunc("GET /v1/figures/{id}", s.instrument(routeFigure, s.handleFigure))
	mux.HandleFunc("POST /v1/jobs", s.instrument(routeJobSubmit, s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument(routeJobList, s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument(routeJobStatus, s.handleJobStatus))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument(routeJobCancel, s.handleJobCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.instrument(routeJobStream, s.handleJobStream))
	if s.peers > 0 {
		mux.HandleFunc("GET /v1/internal/results/{key}", s.instrument(routePeerGet, s.handlePeerGet))
		mux.HandleFunc("PUT /v1/internal/results/{key}", s.instrument(routePeerPut, s.handlePeerPut))
	}
	return withRequestID(mux)
}

// withRequestID stamps X-Request-ID on every response: a sane inbound ID
// is echoed (so a caller's own correlation IDs survive the round trip),
// anything else gets a fresh one. The ID also rides the request context,
// so work done on this request's behalf — in particular the cluster
// store's peer-fetch hop — carries the same correlation ID to the next
// node.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(api.HeaderRequestID)
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set(api.HeaderRequestID, id)
		h.ServeHTTP(w, r.WithContext(api.WithRequestID(r.Context(), id)))
	})
}

// validRequestID accepts short printable tokens without whitespace —
// enough to echo any reasonable tracing ID while refusing header abuse.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// newRequestID returns a fresh 16-hex-digit ID. Randomness (rather than a
// counter) keeps IDs unique across restarts and replicas.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the response status for error accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards flush capability so instrumented routes can stream —
// without it the job stream's per-line flushes would silently buffer
// until the sweep finished.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// discovers extension interfaces (Flusher, deadlines) through it.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps one experiment route with request/error counting and
// wall-clock latency observation. Wall time is fine here: the serving
// layer is the one part of the system that is *supposed* to be measured in
// host time; simulated time never leaves the engine.
func (s *Server) instrument(route routeID, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //lint:ignore nodeterminism request latency is host-time observability; simulated results never see it
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.met.Add(int(route), slotRequests, 1)
		if rec.status >= 400 {
			s.met.Add(int(route), slotErrors, 1)
		}
		//lint:ignore nodeterminism request latency is host-time observability; simulated results never see it
		s.met.Observe(int(route), time.Since(start).Nanoseconds())
	}
}

// readSpec reads and parses a request's spec document, writing the error
// response itself on failure (shared by /v1/run and /v1/jobs). A non-JSON
// Content-Type is a 415; an empty one is accepted for curl ergonomics.
func readSpec(w http.ResponseWriter, r *http.Request) (Spec, bool) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != api.ContentTypeJSON && !strings.HasSuffix(mt, "+json")) {
			writeError(w, http.StatusUnsupportedMediaType, api.CodeUnsupportedMedia,
				fmt.Errorf("exp: Content-Type %q is not JSON (send application/json or omit the header)", ct))
			return Spec{}, false
		}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("reading body: %v", err))
		return Spec{}, false
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, api.CodeSpecTooLarge,
			fmt.Errorf("spec larger than %d bytes", maxSpecBytes))
		return Spec{}, false
	}
	spec, err := ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidSpec, err)
		return Spec{}, false
	}
	return spec, true
}

// handleRun expands and runs a spec document. The request context rides
// into the engine, so a disconnecting client stops scheduling new runs
// (finished runs stay cached for the retry).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec, ok := readSpec(w, r)
	if !ok {
		return
	}
	res, err := s.engine.RunSpec(r.Context(), spec, s.workers)
	if err != nil {
		status, code := statusFor(err)
		writeError(w, status, code, err)
		return
	}
	setCacheHeaders(w, res.Hits, res.Misses)
	writeJSON(w, http.StatusOK, res)
}

// handleFigure serves one scenario by registry ID (an optional ?scale=
// query selects quick or full).
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	spec := Spec{Scenario: r.PathValue("id"), Scale: r.URL.Query().Get("scale")}
	res, err := s.engine.RunSpec(r.Context(), spec, s.workers)
	if err != nil {
		status, code := statusFor(err)
		writeError(w, status, code, err)
		return
	}
	if len(res.Runs) == 0 {
		writeError(w, http.StatusInternalServerError, api.CodeInternal,
			fmt.Errorf("exp: scenario %q expanded to no runs", spec.Scenario))
		return
	}
	setCacheHeaders(w, res.Hits, res.Misses)
	writeRawJSON(w, http.StatusOK, res.Runs[0].Report)
}

// handleJobSubmit validates a spec and enqueues it as an async job: the
// 202 response carries the job's initial state and a Location header, and
// the client polls or streams from there while the sweep executes.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := readSpec(w, r)
	if !ok {
		return
	}
	job, err := s.jobs.Submit(spec)
	if err != nil {
		status, code := statusFor(err)
		if status == http.StatusTooManyRequests {
			// A slot opens as soon as one live job finishes; 1s is an honest
			// hint for well-behaved clients (pkg/client surfaces it).
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, code, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.Info())
}

// handleJobList serves the tracked jobs newest-first. ?limit= bounds the
// page (default DefaultJobPageSize, capped at MaxJobPageSize) and
// ?page_token= (the next_page_token of the previous page) continues the
// walk toward older jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Errorf("exp: limit %q is not a positive integer", raw))
			return
		}
		limit = n
	}
	infos, next, err := s.jobs.List(limit, q.Get("page_token"))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, api.JobPage{Jobs: infos, NextPageToken: next})
}

// lookupJob resolves a path's job ID, writing the 404/410 itself when the
// job is not tracked — 410 with code job_retired distinguishes "this ID
// existed but its record aged out" from "never existed".
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, state := s.jobs.Lookup(id)
	switch state {
	case LookupFound:
		return job, true
	case LookupRetired:
		writeError(w, http.StatusGone, api.CodeJobRetired,
			fmt.Errorf("exp: job %q retired from the bounded registry; its reports remain cached — resubmit the spec", id))
	default:
		writeError(w, http.StatusNotFound, api.CodeUnknownJob, fmt.Errorf("exp: unknown job %q", id))
	}
	return nil, false
}

// handleJobStatus reports one job's lifecycle state and progress counts.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Info())
}

// handleJobCancel cancels a job. Idempotent: canceling a terminal (or
// already-canceled) job changes nothing. The response is the job's state
// at cancellation time — in-flight runs still drain, so clients that need
// the terminal "canceled" state poll or stream until it lands.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Info())
}

// handleJobStream streams the job's RunResults as NDJSON in expansion
// order, each line flushed as its run completes, so a client watches a
// long sweep make progress instead of holding a silent connection. A
// completed job replays its full result set; a failed or canceled sweep
// ends the stream with an api.Envelope error line after the runs that did
// finish.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	rc := beginNDJSONStream(w)
	for i := 0; i < job.Total(); i++ {
		rr, ok := job.WaitRun(r.Context(), i)
		if !ok {
			if r.Context().Err() != nil {
				return // client gone; nothing left to tell it
			}
			// Failed or canceled sweep: this run never finished, but later
			// ones may have (the pool drains every claimed run), and the
			// contract promises every finished run before the error line.
			continue
		}
		line, err := json.Marshal(rr)
		if err != nil {
			return
		}
		writeStreamLine(w, rc, line)
	}
	if err := job.Err(); err != nil {
		code := api.CodeRunFailed
		switch {
		case errors.Is(err, ErrJobCanceled):
			code = api.CodeJobCanceled
		case errors.Is(err, ErrJobInterrupted):
			code = api.CodeJobInterrupted
		}
		line, _ := json.Marshal(api.Envelope{Err: &api.Error{Code: code, Message: err.Error()}})
		writeStreamLine(w, rc, line)
	}
}

// beginNDJSONStream opens an NDJSON response. Together with
// writeStreamLine it is the streaming counterpart of writeRawJSON: the
// only emitters allowed to touch a ResponseWriter directly (enforced by
// impact-lint's apienvelope), so every body the server produces goes
// through an audited, shared path.
func beginNDJSONStream(w http.ResponseWriter) *http.ResponseController {
	w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	return http.NewResponseController(w)
}

// writeStreamLine emits one pre-marshaled NDJSON line and flushes it, so
// clients watch long sweeps progress instead of holding a silent
// connection.
func writeStreamLine(w http.ResponseWriter, rc *http.ResponseController, line []byte) {
	w.Write(line)
	w.Write([]byte("\n"))
	rc.Flush()
}

// maxPeerResultBytes bounds PUT /v1/internal/results/{key} bodies.
// Reports are a few KiB; 8 MiB leaves an order-of-magnitude margin for
// future scenario growth while keeping a misbehaving peer from streaming
// unbounded bytes into memory.
const maxPeerResultBytes = 8 << 20

// validResultKey accepts exactly the content-address alphabet: 64
// lowercase hex digits (a full SHA-256). Anything else is a 400 before
// the store is consulted.
func validResultKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handlePeerGet serves one result blob to a cluster peer — strictly from
// this node's local tiers (memory, then local disk/pack). The lookup
// deliberately bypasses the cluster store's remote fallthrough: if node A
// asks node B and B asked C in turn, a missing key would ricochet around
// the ring. A local miss is a normal 404 (code result_not_found); the
// asking node simulates the run itself.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validResultKey(key) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("exp: result key %q is not a 64-digit hex digest", key))
		return
	}
	blob, ok := s.engine.Cache().PeekLocal(r.Context(), key)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeResultNotFound,
			fmt.Errorf("exp: result %s not held locally", key))
		return
	}
	writeRawJSON(w, http.StatusOK, blob)
}

// handlePeerPut accepts one replicated result blob from a cluster peer
// into this node's local tiers. Like handlePeerGet it stays strictly
// local — storing through the cluster store's Put would re-enqueue the
// blob for replication and echo it around the replica set forever. The
// body must decode as a report (it is re-served verbatim by
// handlePeerGet and decoded by every reader), but is otherwise opaque:
// content addressing means a peer that sends bytes for a key it computed
// honestly can only send the right bytes. Whoever can reach this route
// can write results, which is why only a node with peers mounts it.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validResultKey(key) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("exp: result key %q is not a 64-digit hex digest", key))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPeerResultBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("reading body: %v", err))
		return
	}
	if len(body) > maxPeerResultBytes {
		writeError(w, http.StatusRequestEntityTooLarge, api.CodeSpecTooLarge,
			fmt.Errorf("result larger than %d bytes", maxPeerResultBytes))
		return
	}
	if _, err := DecodeReport(body); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("exp: replicated result %s is not a report: %v", key, err))
		return
	}
	s.engine.Cache().PutLocal(r.Context(), key, body)
	writeJSON(w, http.StatusOK, api.PeerAck{OK: true})
}

// handleScenarios lists the registry.
func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.ScenarioList{Scenarios: ScenarioList()})
}

// buildVersion and buildGo are resolved once from the binary's embedded
// build info for the health document.
var buildVersion, buildGo = readBuildInfo()

func readBuildInfo() (string, string) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		v := bi.Main.Version
		if v == "" {
			v = "(devel)"
		}
		return v, bi.GoVersion
	}
	return "unknown", runtime.Version()
}

// handleHealth reports liveness, build info, and the engine's cache
// counters. The shape is a stable wire contract (api.Health); the richer
// document lives on /v1/metrics, and this endpoint stays uninstrumented
// so scraping it never pollutes the experiment counters.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := s.engine.Cache().Stats()
	writeJSON(w, http.StatusOK, api.Health{
		Status:  "ok",
		Version: buildVersion,
		Go:      buildGo,
		NodeID:  s.nodeID,
		Store:   s.storeKind,
		Peers:   s.peers,
		Cache: api.HealthCache{
			Entries: st.Entries,
			Hits:    st.Hits,
			Misses:  st.Misses,
		},
	})
}

// RouteMetrics and MetricsDoc are the /v1/metrics wire shapes, defined in
// pkg/api with the rest of the v1 contract.
type (
	RouteMetrics = api.RouteMetrics
	MetricsDoc   = api.MetricsDoc
)

// handleMetrics serves the runtime metrics document. Read-only: it must
// never touch the result cache or the experiment counters (scrapers poll
// this endpoint, and polling is not traffic).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	pool := s.engine.PoolStats()
	doc := MetricsDoc{
		Requests: make(map[string]RouteMetrics, routeCount),
		Cache:    s.engine.Cache().Stats(),
		Jobs:     s.jobs.Stats(),
		MachinePool: api.MachinePoolStats{
			Hits:   pool.Hits,
			Misses: pool.Misses,
			Drops:  pool.Drops,
		},
	}
	// The store sections follow the configured backend, detected
	// structurally (exp imports neither internal/exp/pack nor
	// internal/cluster; the dependencies point the other way via the cmd
	// layer), and a nil interface matches neither, leaving the sections
	// absent. A cluster store contributes its own section and then unwraps
	// to the local backend it shards, so the pack section keeps reporting
	// on this node's own tier.
	store := s.engine.cache.store
	if cs, ok := store.(interface{ ClusterStats() api.ClusterStats }); ok {
		stats := cs.ClusterStats()
		doc.Cluster = &stats
		if inner, ok := store.(interface{ Local() ResultStore }); ok {
			store = inner.Local()
		}
	}
	if st, ok := store.(interface{ PackStats() api.PackStats }); ok {
		stats := st.PackStats()
		doc.Pack = &stats
	}
	for i := range routeNames {
		lat := s.met.Histogram(i)
		doc.Requests[routeNames[i]] = RouteMetrics{
			Requests:        s.met.Value(i, slotRequests),
			Errors:          s.met.Value(i, slotErrors),
			LatencyMeanN:    lat.Mean(),
			LatencyP50N:     lat.Quantile(0.50),
			LatencyP90N:     lat.Quantile(0.90),
			LatencyP99N:     lat.Quantile(0.99),
			LatencyOverflow: lat.Overflow,
			LatencyNegative: lat.Negative,
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// setCacheHeaders records how this request's runs were served: "hit"
// (all from cache), "miss" (none), or "partial" (an overlapping sweep).
// The counts ride along for sweep-level observability; they are per run,
// so they sum to the run count.
func setCacheHeaders(w http.ResponseWriter, hits, misses int) {
	state := "miss"
	switch {
	case misses == 0 && hits > 0:
		state = "hit"
	case misses > 0 && hits > 0:
		state = "partial"
	}
	w.Header().Set(api.HeaderCache, state)
	w.Header().Set(api.HeaderCacheHits, fmt.Sprint(hits))
	w.Header().Set(api.HeaderCacheMisses, fmt.Sprint(misses))
}

// statusFor maps engine errors to HTTP statuses and stable error codes:
// unknown scenarios are 404s (the resource does not exist), a full job
// registry is a 429 (try again once a job finishes), a canceled sweep is
// a 499 (the nginx "client closed request" convention — the only way a
// synchronous run is canceled is its own client disconnecting), and
// everything else is a client spec error.
func statusFor(err error) (int, api.ErrorCode) {
	if errors.Is(err, ErrUnknownScenario) {
		return http.StatusNotFound, api.CodeUnknownScenario
	}
	if errors.Is(err, ErrTooManyJobs) {
		return http.StatusTooManyRequests, api.CodeTooManyJobs
	}
	if errors.Is(err, ErrShuttingDown) {
		return http.StatusServiceUnavailable, api.CodeShuttingDown
	}
	if errors.Is(err, ErrJournalUnavailable) {
		return http.StatusServiceUnavailable, api.CodeInternal
	}
	if errors.Is(err, ErrSweepCanceled) {
		return 499, api.CodeJobCanceled
	}
	if errors.Is(err, ErrGridTooLarge) {
		return http.StatusBadRequest, api.CodeGridTooLarge
	}
	return http.StatusBadRequest, api.CodeInvalidSpec
}

// writeRawJSON writes pre-marshaled JSON with the shared content type and
// the trailing newline every JSON body carries.
func writeRawJSON(w http.ResponseWriter, status int, blob []byte) {
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	w.WriteHeader(status)
	w.Write(blob)
	w.Write([]byte("\n"))
}

// writeJSON marshals v once and writes it; marshaling before WriteHeader
// keeps error handling honest and the body deterministic.
func writeJSON(w http.ResponseWriter, status int, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	writeRawJSON(w, status, blob)
}

// writeError emits a structured api.Envelope error document.
func writeError(w http.ResponseWriter, status int, code api.ErrorCode, err error) {
	blob, _ := json.Marshal(api.Envelope{Err: &api.Error{Code: code, Message: err.Error()}})
	writeRawJSON(w, status, blob)
}
