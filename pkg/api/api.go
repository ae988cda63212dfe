// Package api is the versioned wire contract of the impact experiment
// service: every request and response body exchanged on the /v1 HTTP
// surface is defined here as a typed document, shared verbatim by the
// server (internal/exp), the Go SDK (pkg/client), and the CLIs
// (cmd/impact-server, cmd/impact-sweep, cmd/impact-bench). The package
// has no dependencies beyond the standard library, so external users can
// import it without pulling in the simulator.
//
// Two invariants shape every type here:
//
//   - Determinism: the simulator behind the service is deterministic and
//     reports are content-addressed, so the body served for one RunSpec is
//     byte-identical across requests, worker counts, and server restarts.
//     The JSON field order of these structs is therefore part of the
//     contract — reordering fields changes served bytes.
//   - Structured errors: every non-2xx response is an Envelope holding an
//     Error with a stable machine-readable Code (see errors.go), so
//     clients branch on codes, never on message text.
//
// See docs/api.md for the endpoint-by-endpoint contract.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Version is the API version prefix every experiment route lives under.
const Version = "v1"

// Response headers that carry request-scoped metadata outside the body.
const (
	// HeaderRequestID is set on every response. Inbound values are echoed
	// back (so callers can correlate retries); absent ones are generated.
	HeaderRequestID = "X-Request-ID"
	// HeaderCache summarizes how a request's runs were served:
	// "hit" (all from cache), "miss" (none), or "partial".
	HeaderCache = "X-Cache"
	// HeaderCacheHits and HeaderCacheMisses carry the counts behind the
	// HeaderCache verdict.
	HeaderCacheHits   = "X-Cache-Hits"
	HeaderCacheMisses = "X-Cache-Misses"
)

// ContentTypeJSON is the request/response body media type for every
// document endpoint; ContentTypeNDJSON is the job stream's.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeNDJSON = "application/x-ndjson"
)

// RunSpec is the declarative form of an experiment sweep, the request
// body of POST /v1/run and POST /v1/jobs.
//
// Config is a sparse sim.Config document (snake_case fields) deep-merged
// over the paper's Table 2 defaults. Grid maps dot-separated config field
// paths — e.g. "llc_bytes" or "mem.defense" — to the list of values to
// sweep; the server expands the Cartesian product of all grid fields into
// concrete runs (sorted path order, last path fastest).
type RunSpec struct {
	Scenario string                       `json:"scenario"`
	Scale    string                       `json:"scale,omitempty"`
	Config   json.RawMessage              `json:"config,omitempty"`
	Grid     map[string][]json.RawMessage `json:"grid,omitempty"`
}

// ParseRunSpec decodes a spec document the same way the server does:
// unknown fields are rejected so typos ("grids", "senario") fail loudly
// client-side instead of silently running defaults.
func ParseRunSpec(data []byte) (RunSpec, error) {
	var s RunSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("api: spec: %v", err)
	}
	return s, nil
}

// RunResult is one concrete run's outcome: its content address, the
// resolved scenario/scale/grid-point labels, and the report document.
// These appear as SweepResult.Runs elements and as the NDJSON lines of
// GET /v1/jobs/{id}/stream (line i is byte-identical to runs[i] of the
// synchronous response for the same spec).
type RunResult struct {
	Key      string            `json:"key"`
	Scenario string            `json:"scenario"`
	Scale    string            `json:"scale"`
	Params   map[string]string `json:"params,omitempty"`
	Report   json.RawMessage   `json:"report"`
}

// SweepResult is the POST /v1/run response: every expanded run in
// deterministic expansion order, under the sweep's own content address
// (the SHA-256 over the ordered run keys).
type SweepResult struct {
	SpecKey string      `json:"spec_key"`
	Runs    []RunResult `json:"runs"`
}

// ScenarioInfo describes one runnable scenario in the registry listing.
// ConfigSensitive scenarios accept config/grid fields; the rest replay
// fixed paper artifacts and reject them.
type ScenarioInfo struct {
	Name            string `json:"name"`
	Description     string `json:"description"`
	ConfigSensitive bool   `json:"config_sensitive"`
}

// ScenarioList is the GET /v1/scenarios response.
type ScenarioList struct {
	Scenarios []ScenarioInfo `json:"scenarios"`
}

// Job statuses, in lifecycle order: a job starts queued, moves to
// running, and lands in exactly one terminal state. Retirement (the
// registry dropping a terminal job FIFO to bound memory) is not a
// status — a retired job answers 410 with code "job_retired".
//
// Interrupted is the one non-terminal state outside the normal flow: a
// graceful shutdown caught the job mid-execution, its progress was
// journaled, and a server restarted on the same data dir re-enqueues it
// (the resumed job reports Resumed true and skips every run already in
// the durable store). The state is visible only in the narrow window
// between drain start and process exit.
const (
	JobQueued      = "queued"
	JobRunning     = "running"
	JobInterrupted = "interrupted"
	JobDone        = "done"
	JobFailed      = "failed"
	JobCanceled    = "canceled"
)

// JobTerminal reports whether a status string is a terminal state.
// Interrupted is not terminal: the job still owes results, just to a
// future process.
func JobTerminal(status string) bool {
	return status == JobDone || status == JobFailed || status == JobCanceled
}

// JobInfo is the wire form of a job's state, served on POST /v1/jobs,
// GET /v1/jobs/{id}, DELETE /v1/jobs/{id}, and inside GET /v1/jobs.
// Hits and Misses count completed runs by how they were served (cache
// vs. simulation); SpecKey appears only on done jobs and Error only on
// failed or canceled ones. Resumed marks a job re-enqueued from the
// on-disk journal after a restart interrupted it.
type JobInfo struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Runs      int    `json:"runs"`
	Completed int    `json:"completed"`
	Hits      int    `json:"hits"`
	Misses    int    `json:"misses"`
	Resumed   bool   `json:"resumed,omitempty"`
	SpecKey   string `json:"spec_key,omitempty"`
	Error     string `json:"error,omitempty"`
}

// JobPage is the GET /v1/jobs response: tracked jobs newest-first.
// NextPageToken, when set, is the ?page_token= value that continues the
// listing with the next-older page; an empty token means the listing is
// complete.
type JobPage struct {
	Jobs          []JobInfo `json:"jobs"`
	NextPageToken string    `json:"next_page_token,omitempty"`
}

// Health is the GET /healthz response: a stable, minimal liveness
// contract (richer data lives on /v1/metrics). Version and Go come from
// the binary's embedded build info. NodeID, Store, and Peers identify a
// cluster member: the node's -node-id, its result-store backend ("pack"
// or "memory"), and how many other peers its hash ring knows
// about (0 for a standalone server) — enough for an operator curling a
// load-balanced address to tell which node answered and how it is
// configured.
type Health struct {
	Status  string      `json:"status"`
	Version string      `json:"version"`
	Go      string      `json:"go"`
	NodeID  string      `json:"node_id"`
	Store   string      `json:"store"`
	Peers   int         `json:"peers"`
	Cache   HealthCache `json:"cache"`
}

// HealthCache is the result-cache slice of the health document.
type HealthCache struct {
	Entries int64 `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// RouteMetrics is the per-route section of the /v1/metrics document.
// Latency quantiles are estimated from fixed 1-2-5 bucket histograms, so
// they carry bucket-resolution error; LatencyOverflow counts samples
// beyond the top bound and LatencyNegative counts clock-skewed samples
// clamped to zero, so neither distortion is silent.
type RouteMetrics struct {
	Requests        int64   `json:"requests"`
	Errors          int64   `json:"errors"`
	LatencyMeanN    float64 `json:"latency_mean_ns"`
	LatencyP50N     int64   `json:"latency_p50_ns"`
	LatencyP90N     int64   `json:"latency_p90_ns"`
	LatencyP99N     int64   `json:"latency_p99_ns"`
	LatencyOverflow int64   `json:"latency_overflow"`
	LatencyNegative int64   `json:"latency_negative"`
}

// CacheStats is the result-cache section of /v1/metrics (and, in part,
// /healthz). Computes counts actual simulator executions; DedupHits
// counts callers whose identical in-flight run was coalesced onto
// another request's computation.
type CacheStats struct {
	Entries   int64 `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	Computes  int64 `json:"computes"`
	DedupHits int64 `json:"dedup_hits"`
}

// PackStats is the pack-engine section of /v1/metrics, present only when
// the server runs with a -data-dir. CorruptDropped counts entries that
// failed checksum validation and were dropped; Errors counts I/O failures
// that degraded to misses or dropped writes. RecoveredNeedles counts
// appends rebuilt by the boot tail scan (writes newer than the last
// index file). IndexWrites counts atomic index rewrites. The Audit*
// counters account for the background CRC re-verifier: passes
// completed, needles checked, and entries dropped (then healed by
// re-simulation on next access). Bundles/IndexEntries/LiveBytes/
// GarbageBytes are point-in-time gauges of the on-disk layout;
// GarbageBytes are the needles dropped as corrupt, which stay in their
// bundle until it holds no live needle and a boot unlinks it.
type PackStats struct {
	Hits                int64 `json:"hits"`
	Misses              int64 `json:"misses"`
	Stores              int64 `json:"stores"`
	CorruptDropped      int64 `json:"corrupt_dropped"`
	Errors              int64 `json:"errors"`
	RecoveredNeedles    int64 `json:"recovered_needles"`
	IndexWrites         int64 `json:"index_writes"`
	AuditPasses         int64 `json:"audit_passes"`
	AuditedNeedles      int64 `json:"audited_needles"`
	AuditCorruptDropped int64 `json:"audit_corrupt_dropped"`
	Bundles             int64 `json:"bundles"`
	IndexEntries        int64 `json:"index_entries"`
	LiveBytes           int64 `json:"live_bytes"`
	GarbageBytes        int64 `json:"garbage_bytes"`
}

// JobsStats is the async-job-registry section of /v1/metrics. Tracked is
// current registry occupancy; Retired counts terminal jobs dropped FIFO
// to admit new submissions (plus jobs a boot finds settled in the
// journal). Resumed counts jobs re-enqueued from the journal after a
// restart, and RunsSkippedOnResume counts their runs served from the
// durable store instead of re-simulated — recovery cost is proportional
// only to the work actually lost. JournalErrors and JournalCorruptDropped
// mirror the store's error accounting for the job journal.
type JobsStats struct {
	Submitted             int64 `json:"submitted"`
	Rejected              int64 `json:"rejected"`
	Completed             int64 `json:"completed"`
	Failed                int64 `json:"failed"`
	Canceled              int64 `json:"canceled"`
	Retired               int64 `json:"retired"`
	Tracked               int64 `json:"tracked"`
	Resumed               int64 `json:"resumed"`
	RunsSkippedOnResume   int64 `json:"runs_skipped_on_resume"`
	JournalErrors         int64 `json:"journal_errors,omitempty"`
	JournalCorruptDropped int64 `json:"journal_corrupt_dropped,omitempty"`
}

// ClusterStats is the cluster section of /v1/metrics, present only when
// the server runs with -peers. The lookup counters classify how this
// node resolved result keys that missed its in-memory cache: LocalHits
// were served from the node's own durable store, RemoteHits were fetched
// from a peer in the key's replica set, RemoteMisses were probes a live
// peer answered "not found", PeerErrors were fetch attempts that failed
// at the transport (a partitioned or dead peer — the lookup degrades to
// local simulation, never to a failed request), and Misses count full
// fallthroughs that went on to simulate locally. Heals count replica
// copies written back to the local store after a peer fetch found bytes
// this node should have owned.
//
// The Repl* counters account for the asynchronous replication queue:
// Enqueued copies accepted, Sent copies acknowledged by their target,
// Retries failed attempts that were re-tried with backoff, Failed copies
// dropped after exhausting retries, and DroppedFull copies rejected at
// enqueue because the bounded queue was full (re-replication on a later
// read heals both loss modes). Queue is the point-in-time backlog gauge.
type ClusterStats struct {
	NodeID          string `json:"node_id"`
	Peers           int    `json:"peers"`
	LocalHits       int64  `json:"local_hits"`
	RemoteHits      int64  `json:"remote_hits"`
	RemoteMisses    int64  `json:"remote_misses"`
	PeerErrors      int64  `json:"peer_errors"`
	Misses          int64  `json:"misses"`
	Heals           int64  `json:"heals"`
	ReplEnqueued    int64  `json:"replication_enqueued"`
	ReplSent        int64  `json:"replication_sent"`
	ReplRetries     int64  `json:"replication_retries"`
	ReplFailed      int64  `json:"replication_failed"`
	ReplDroppedFull int64  `json:"replication_dropped_full"`
	ReplQueue       int64  `json:"replication_queue"`
}

// PeerAck is the response body of the internal peer replication endpoint
// (PUT /v1/internal/results/{key}): a minimal acknowledgment document —
// the store is first-write-wins and content-addressed, so there is
// nothing else to say.
type PeerAck struct {
	OK bool `json:"ok"`
}

// MachinePoolStats is the machine-pool section of /v1/metrics: how cold
// runs were provisioned. Hits reused a pooled machine via the reset fast
// path, Misses assembled a fresh machine because the pool was empty, and
// Drops discarded a pooled machine whose shape the requested config could
// not reuse (and then assembled fresh).
type MachinePoolStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Drops  int64 `json:"drops"`
}

// MetricsDoc is the GET /v1/metrics response body. Pack is present when
// the engine has the durable pack store configured, Cluster when it runs
// as a cluster node.
type MetricsDoc struct {
	Requests    map[string]RouteMetrics `json:"requests"`
	Cache       CacheStats              `json:"cache"`
	Pack        *PackStats              `json:"pack,omitempty"`
	Cluster     *ClusterStats           `json:"cluster,omitempty"`
	Jobs        JobsStats               `json:"jobs"`
	MachinePool MachinePoolStats        `json:"machine_pool"`
}
