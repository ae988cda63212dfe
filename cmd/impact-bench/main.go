// Command impact-bench is a concurrent load generator for impact-server,
// driving the typed v1 API through the pkg/client SDK (retries disabled —
// a load generator must observe failures, not paper over them). It fires
// a configurable mix of POST /v1/run and GET /v1/figures/{id} requests
// from a pool of workers and reports QPS, client-observed cache hit rate,
// and latency percentiles (p50/p90/p99, estimated from internal/metrics
// fixed-bucket histograms) as text or JSON.
//
// The run mix can be split cold/warm: a warm request repeats the base spec
// (content-addressed, so it is served from the result cache after the
// first computation), while a cold request patches a unique noise.seed
// into the spec's config, forcing a fresh simulation. That makes the two
// ends of the serving spectrum — pure cache reads vs. full simulator
// sweeps — measurable in one run. Cold requests therefore require a
// config-sensitive scenario (the covert-* family) whose grid leaves
// noise.seed alone: a grid value would override the patched seed.
//
//	impact-bench -addr http://localhost:8322 -workers 8 -duration 10s
//	impact-bench -inprocess -requests 64 -run-frac 0.5 -cold 0.1 -json
//
// With -jobs the run slice of the mix exercises the asynchronous job API
// instead of the synchronous /v1/run: each op submits the spec to POST
// /v1/jobs, drains the NDJSON result stream, and waits for the terminal
// status, classifying hit/miss from the job's cache counts.
//
// With -inprocess the tool spins up an exp.Server on a loopback listener
// and load-tests that, so a one-command smoke run needs no external
// server (make loadtest-smoke); -data-dir additionally backs the
// in-process server with the durable pack store, which makes warm-restart
// behavior measurable by re-running the same command (make jobs-smoke).
// -smoke exits nonzero unless the run saw zero errors, nonzero QPS, and a
// nonzero cache hit rate.
//
// With -objects N the tool switches to the store object-count sweep: it
// opens the pack store directly at -data-dir, preloads N synthetic
// content-addressed results, and times -gets random Get probes — the
// measurement behind docs/benchmark.md's object-count scaling table (see
// objsweep.go). In this mode -smoke demands zero Get misses.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/pkg/api"
	"repro/pkg/client"
)

// defaultSpec is the built-in quick-scale sweep used when -spec is not
// given: two unique runs, config-sensitive so -cold works.
const defaultSpec = `{
	"scenario": "covert-pnm",
	"scale": "quick",
	"grid": {"llc_bytes": [4194304, 8388608]}
}`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "impact-bench:", err)
		os.Exit(1)
	}
}

// opKind labels the two request types in the mix.
type opKind int

const (
	opRun opKind = iota
	opFigure
	opCount
)

var opNames = []string{"run", "figure"}

// Per-op counter slots inside the metrics.Groups blocks.
const (
	ctrRequests = iota
	ctrErrors
	ctrHit
	ctrMiss
	ctrPartial
)

// newBenchMetrics aggregates all workers' observations: one counter block
// and one latency histogram per op, all lock-free.
func newBenchMetrics() *metrics.Groups {
	return metrics.NewGroups(opNames, []string{"requests", "errors", "hit", "miss", "partial"},
		"latency_ns", metrics.LatencyBounds())
}

// config is the parsed flag set.
type config struct {
	base     string
	cluster  []string    // cluster mode: one base URL per node, load rotated
	spec     api.RunSpec // template for warm requests and cold variants
	figure   string
	workers  int
	duration time.Duration
	requests int64
	runFrac  float64
	coldFrac float64
	jobs     bool
	jsonOut  bool
	smoke    bool
	dataDir  string
	objects  int64 // object-sweep mode when > 0; see objsweep.go
	gets     int64
}

// run parses flags, drives the load, and prints the summary.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("impact-bench", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8322", "base URL of impact-server")
	specPath := fs.String("spec", "", "spec file for POST /v1/run (default: built-in 2-point covert-pnm sweep)")
	figure := fs.String("figure", "rowbuffer", "figure ID for GET /v1/figures/{id}")
	workers := fs.Int("workers", 8, "concurrent client workers")
	duration := fs.Duration("duration", 10*time.Second, "how long to fire (ignored when -requests > 0)")
	requests := fs.Int64("requests", 0, "total request budget (0 = run for -duration)")
	runFrac := fs.Float64("run-frac", 0.5, "fraction of requests that POST /v1/run (rest GET the figure)")
	coldFrac := fs.Float64("cold", 0, "fraction of run requests forced cold via a unique noise.seed config patch")
	jobs := fs.Bool("jobs", false, "drive run requests through the async job API (submit, stream, wait)")
	inprocess := fs.Bool("inprocess", false, "load-test an in-process server on a loopback listener")
	dataDir := fs.String("data-dir", "", "durable result store directory (with -inprocess or -objects)")
	objects := fs.Int64("objects", 0, "object-sweep mode: preload N synthetic results into -data-dir and time random Gets")
	gets := fs.Int64("gets", 10000, "with -objects: number of random Get probes to time")
	jsonOut := fs.Bool("json", false, "print the summary as JSON")
	smoke := fs.Bool("smoke", false, "exit nonzero unless errors==0, QPS>0, and hit rate>0")
	clusterList := fs.String("cluster", "",
		"comma-separated base URLs of cluster nodes; workers rotate requests across them "+
			"and the summary adds per-node hit ratios (overrides -addr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("need at least 1 worker, got %d", *workers)
	}
	if *runFrac < 0 || *runFrac > 1 {
		return fmt.Errorf("-run-frac %v outside [0, 1]", *runFrac)
	}
	if *coldFrac < 0 || *coldFrac > 1 {
		return fmt.Errorf("-cold %v outside [0, 1]", *coldFrac)
	}
	if *requests < 0 {
		return fmt.Errorf("negative request budget %d", *requests)
	}
	if *requests == 0 && *duration <= 0 {
		return fmt.Errorf("need -requests > 0 or -duration > 0")
	}

	if *dataDir != "" && !*inprocess && *objects == 0 {
		return fmt.Errorf("-data-dir only applies with -inprocess or -objects (point -addr at a server started with its own -data-dir instead)")
	}
	if *objects < 0 || *gets < 0 {
		return fmt.Errorf("negative -objects/-gets")
	}

	var clusterAddrs []string
	if *clusterList != "" {
		if *inprocess {
			return fmt.Errorf("-cluster and -inprocess are mutually exclusive")
		}
		for _, a := range strings.Split(*clusterList, ",") {
			if a = strings.TrimSpace(a); a != "" {
				clusterAddrs = append(clusterAddrs, a)
			}
		}
		if len(clusterAddrs) == 0 {
			return fmt.Errorf("-cluster %q names no nodes", *clusterList)
		}
	}

	cfg := config{
		cluster:  clusterAddrs,
		figure:   *figure,
		workers:  *workers,
		duration: *duration,
		requests: *requests,
		runFrac:  *runFrac,
		coldFrac: *coldFrac,
		jobs:     *jobs,
		jsonOut:  *jsonOut,
		smoke:    *smoke,
		dataDir:  *dataDir,
		objects:  *objects,
		gets:     *gets,
	}

	// Object-sweep mode bypasses the HTTP path entirely; see objsweep.go.
	if cfg.objects > 0 {
		if *inprocess {
			return fmt.Errorf("-objects and -inprocess are mutually exclusive")
		}
		if cfg.dataDir == "" {
			return fmt.Errorf("-objects requires -data-dir")
		}
		return runObjectSweep(cfg, stdout)
	}
	specBlob := []byte(defaultSpec)
	if *specPath != "" {
		blob, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		specBlob = blob
	}
	var err error
	if cfg.spec, err = api.ParseRunSpec(specBlob); err != nil {
		return err
	}
	if cfg.coldFrac > 0 {
		// A cold request patches noise.seed into the config, and grid
		// values are applied over the config: a grid that sweeps the seed
		// would silently turn every cold request warm.
		for _, path := range []string{"noise.seed", "noise"} {
			if _, ok := cfg.spec.Grid[path]; ok {
				return fmt.Errorf("-cold patches noise.seed, but the spec's grid sweeps %q and would override it; drop the grid field or -cold", path)
			}
		}
	}

	switch {
	case *inprocess:
		var engineOpts []exp.EngineOption
		if *dataDir != "" {
			store, err := openPack(cfg.dataDir)
			if err != nil {
				return err
			}
			defer store.Close()
			engineOpts = append(engineOpts, exp.WithStore(store))
		}
		ts := httptest.NewServer(exp.NewServer(exp.NewEngine(engineOpts...)).Handler())
		defer ts.Close()
		cfg.base = ts.URL
	case len(cfg.cluster) > 0:
		cfg.base = strings.Join(cfg.cluster, ",")
	default:
		cfg.base = *addr
	}

	sum, err := drive(cfg)
	if err != nil {
		return err
	}
	if *inprocess {
		// The pool section only means something when this process owns the
		// whole server lifetime; against a remote server the counters would
		// mix in every other client's traffic.
		if doc, err := fetchMetrics(cfg.base); err == nil {
			sum.MachinePool = &doc.MachinePool
		}
	}
	if err := printSummary(stdout, cfg, sum); err != nil {
		return err
	}
	if cfg.smoke {
		total := sum.Total
		if total.Errors > 0 || total.QPS <= 0 || total.HitRate <= 0 {
			return fmt.Errorf("smoke check failed: errors=%d qps=%.1f hit_rate=%.3f",
				total.Errors, total.QPS, total.HitRate)
		}
		// In -json mode the verdict goes to stderr so stdout stays a single
		// machine-parseable document (the exit code carries pass/fail).
		dst := stdout
		if cfg.jsonOut {
			dst = os.Stderr
		}
		fmt.Fprintln(dst, "smoke: ok")
	}
	return nil
}

// coldSpec returns the base spec with a unique noise.seed patched into its
// config, so the run misses the content-addressed cache by construction.
// The template is never mutated.
func coldSpec(spec api.RunSpec, n int64) (api.RunSpec, error) {
	cfg := map[string]any{}
	if len(spec.Config) > 0 {
		if err := json.Unmarshal(spec.Config, &cfg); err != nil {
			return api.RunSpec{}, fmt.Errorf("spec config is not a JSON object: %v", err)
		}
		if cfg == nil { // "config": null unmarshals to a nil map
			cfg = map[string]any{}
		}
	}
	noise, _ := cfg["noise"].(map[string]any)
	patched := make(map[string]any, len(noise)+1)
	for k, v := range noise {
		patched[k] = v
	}
	patched["seed"] = n
	cfg["noise"] = patched
	blob, err := json.Marshal(cfg)
	if err != nil {
		return api.RunSpec{}, err
	}
	spec.Config = blob
	return spec, nil
}

// drive fires the configured load and aggregates the results. In
// cluster mode (cfg.cluster non-empty) one client per node is built and
// workers rotate requests across them deterministically, with a second
// metrics group keyed by node feeding the summary's per-node rows.
func drive(cfg config) (*summary, error) {
	met := newBenchMetrics()
	bases := cfg.cluster
	if len(bases) == 0 {
		bases = []string{cfg.base}
	}
	// The default transport pools only 2 idle connections per host, which
	// would make every worker beyond the second pay connection churn —
	// a client-side artifact in the numbers this tool exists to measure.
	// Retries are disabled for the same reason: a load generator reports
	// failures, it does not mask them.
	clients := make([]*client.Client, len(bases))
	for i, base := range bases {
		c, err := client.New(base,
			client.WithHTTPClient(&http.Client{
				Timeout: 5 * time.Minute,
				Transport: &http.Transport{
					MaxIdleConns:        cfg.workers,
					MaxIdleConnsPerHost: cfg.workers,
				},
			}),
			client.WithTimeout(0),
			client.WithRetry(0, 0),
			client.WithPollInterval(time.Millisecond))
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	var nodeMet *metrics.Groups
	if len(bases) > 1 {
		nodeMet = metrics.NewGroups(bases, []string{"requests", "errors", "hit", "miss", "partial"},
			"latency_ns", metrics.LatencyBounds())
	}

	var issued atomic.Int64  // budget mode: claimed request slots
	var coldSeq atomic.Int64 // unique seed source for cold runs
	deadline := time.Now().Add(cfg.duration)

	next := func() bool {
		if cfg.requests > 0 {
			return issued.Add(1) <= cfg.requests
		}
		return time.Now().Before(deadline)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Deterministic per-worker op mix: the request schedule is a
			// pure function of flags and worker index, and in cluster mode
			// the node rotation is too.
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for seq := 0; next(); seq++ {
				node := (w + seq) % len(clients)
				rec := func(op opKind, d time.Duration, status int, xcache string) {
					observe(met, int(op), d, status, xcache)
					if nodeMet != nil {
						observe(nodeMet, node, d, status, xcache)
					}
				}
				var err error
				switch {
				case rng.Float64() >= cfg.runFrac:
					err = doFigure(clients[node], cfg, rec)
				case cfg.jobs:
					err = doJob(clients[node], cfg, rec, rng, &coldSeq)
				default:
					err = doRun(clients[node], cfg, rec, rng, &coldSeq)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sum := summarize(met, elapsed)
	if nodeMet != nil {
		sum.Nodes = make(map[string]opSummary, len(bases))
		for i, base := range bases {
			sum.Nodes[base] = groupSummary(nodeMet, i, elapsed)
		}
	}
	return sum, nil
}

// recorder sinks one completed request's observation; drive wires it to
// the per-op metrics and, in cluster mode, the per-node metrics too.
type recorder func(op opKind, d time.Duration, status int, xcache string)

// observe records one completed request under a metrics group label
// (an op in the per-op group, a node in the per-node group — both use
// the same counter slots).
func observe(met *metrics.Groups, label int, d time.Duration, status int, xcache string) {
	met.Add(label, ctrRequests, 1)
	met.Observe(label, d.Nanoseconds())
	if status >= 400 {
		met.Add(label, ctrErrors, 1)
		return
	}
	switch xcache {
	case "hit":
		met.Add(label, ctrHit, 1)
	case "partial":
		met.Add(label, ctrPartial, 1)
	default:
		met.Add(label, ctrMiss, 1)
	}
}

// apiStatus extracts the HTTP status of a server-rejected request; ok is
// false for transport-level failures, which abort the worker (they are a
// harness problem, not a server measurement).
func apiStatus(err error) (int, bool) {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return apiErr.HTTPStatus, true
	}
	return 0, false
}

// benchSpec picks this op's spec: the warm template or a cold variant.
func benchSpec(cfg config, rng *rand.Rand, coldSeq *atomic.Int64) (api.RunSpec, error) {
	if cfg.coldFrac > 0 && rng.Float64() < cfg.coldFrac {
		return coldSpec(cfg.spec, coldSeq.Add(1))
	}
	return cfg.spec, nil
}

// doRun fires one POST /v1/run, cold or warm per the configured ratio.
func doRun(c *client.Client, cfg config, rec recorder, rng *rand.Rand, coldSeq *atomic.Int64) error {
	spec, err := benchSpec(cfg, rng, coldSeq)
	if err != nil {
		return err
	}
	start := time.Now()
	_, cache, err := c.Run(context.Background(), spec)
	if err != nil {
		status, ok := apiStatus(err)
		if !ok {
			return err
		}
		rec(opRun, time.Since(start), status, "")
		return nil
	}
	rec(opRun, time.Since(start), http.StatusOK, cache.State)
	return nil
}

// doJob drives one full async-job lifecycle: submit the spec (cold or
// warm per the configured ratio), drain the NDJSON result stream, then
// wait for the terminal status and classify hit/miss from the job's cache
// counts. The observed latency covers the whole lifecycle, which is the
// number a client of the async API actually experiences.
func doJob(c *client.Client, cfg config, rec recorder, rng *rand.Rand, coldSeq *atomic.Int64) error {
	spec, err := benchSpec(cfg, rng, coldSeq)
	if err != nil {
		return err
	}
	ctx := context.Background()
	start := time.Now()
	sub, err := c.SubmitJob(ctx, spec)
	if err != nil {
		status, ok := apiStatus(err)
		if !ok {
			return err
		}
		rec(opRun, time.Since(start), status, "")
		return nil
	}

	stream, err := c.StreamJob(ctx, sub.ID)
	if err != nil {
		status, ok := apiStatus(err)
		if !ok {
			return err
		}
		rec(opRun, time.Since(start), status, "")
		return nil
	}
	for {
		_, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A trailing error line means the sweep failed; the terminal
			// status below classifies that. Transport failures abort.
			if _, ok := apiStatus(err); !ok {
				stream.Close()
				return err
			}
			break
		}
	}
	stream.Close()

	// The stream ends when the last run is emitted; the terminal status
	// lands moments later, so the wait normally returns first poll.
	info, err := c.WaitJob(ctx, sub.ID)
	if err != nil {
		status, ok := apiStatus(err)
		if !ok {
			return err
		}
		rec(opRun, time.Since(start), status, "")
		return nil
	}
	status := http.StatusOK
	if info.Status != api.JobDone {
		status = http.StatusInternalServerError
	}
	xcache := "miss"
	switch {
	case info.Misses == 0 && info.Hits > 0:
		xcache = "hit"
	case info.Misses > 0 && info.Hits > 0:
		xcache = "partial"
	}
	rec(opRun, time.Since(start), status, xcache)
	return nil
}

// doFigure fires one GET /v1/figures/{id}.
func doFigure(c *client.Client, cfg config, rec recorder) error {
	start := time.Now()
	_, cache, err := c.Figure(context.Background(), cfg.figure, "")
	if err != nil {
		status, ok := apiStatus(err)
		if !ok {
			return err
		}
		rec(opFigure, time.Since(start), status, "")
		return nil
	}
	rec(opFigure, time.Since(start), http.StatusOK, cache.State)
	return nil
}

// opSummary is one row of the report.
type opSummary struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Partial  int64   `json:"partial"`
	QPS      float64 `json:"qps"`
	HitRate  float64 `json:"hit_rate"`
	P50      int64   `json:"latency_p50_ns"`
	P90      int64   `json:"latency_p90_ns"`
	P99      int64   `json:"latency_p99_ns"`
	MeanNs   float64 `json:"latency_mean_ns"`
}

// summary is the whole report; Total aggregates both ops (its latency
// percentiles merge the per-op histograms bucket-wise).
type summary struct {
	ElapsedSeconds float64              `json:"elapsed_seconds"`
	Workers        int                  `json:"workers"`
	Ops            map[string]opSummary `json:"ops"`
	Total          opSummary            `json:"total"`
	// Nodes breaks the same numbers down by cluster node (with -cluster
	// only), keyed by base URL — the per-node hit ratios show how the
	// ring spreads warm keys across members.
	Nodes map[string]opSummary `json:"nodes,omitempty"`
	// MachinePool is the server's machine-pool traffic over the whole
	// bench (in -inprocess mode only): how many cold runs reused a pooled
	// machine via the reset fast path instead of paying full assembly.
	MachinePool *api.MachinePoolStats `json:"machine_pool,omitempty"`
}

// groupSummary folds one label of a metrics group into a report row.
func groupSummary(met *metrics.Groups, label int, elapsed time.Duration) opSummary {
	lat := met.Histogram(label)
	o := opSummary{
		Requests: met.Value(label, ctrRequests),
		Errors:   met.Value(label, ctrErrors),
		Hits:     met.Value(label, ctrHit),
		Misses:   met.Value(label, ctrMiss),
		Partial:  met.Value(label, ctrPartial),
		P50:      lat.Quantile(0.50),
		P90:      lat.Quantile(0.90),
		P99:      lat.Quantile(0.99),
		MeanNs:   lat.Mean(),
	}
	o.QPS = rate(o.Requests, elapsed)
	o.HitRate = hitRate(o)
	return o
}

// summarize folds the metrics set into the report.
func summarize(met *metrics.Groups, elapsed time.Duration) *summary {
	sum := &summary{
		ElapsedSeconds: elapsed.Seconds(),
		Ops:            make(map[string]opSummary, opCount),
	}
	var merged metrics.HistogramSnapshot
	for op := opKind(0); op < opCount; op++ {
		lat := met.Histogram(int(op))
		o := groupSummary(met, int(op), elapsed)
		sum.Ops[opNames[op]] = o

		sum.Total.Requests += o.Requests
		sum.Total.Errors += o.Errors
		sum.Total.Hits += o.Hits
		sum.Total.Misses += o.Misses
		sum.Total.Partial += o.Partial
		if merged.Counts == nil {
			merged = lat
		} else {
			for i := range merged.Counts {
				merged.Counts[i] += lat.Counts[i]
			}
			merged.Count += lat.Count
			merged.Sum += lat.Sum
		}
	}
	sum.Total.QPS = rate(sum.Total.Requests, elapsed)
	sum.Total.HitRate = hitRate(sum.Total)
	sum.Total.P50 = merged.Quantile(0.50)
	sum.Total.P90 = merged.Quantile(0.90)
	sum.Total.P99 = merged.Quantile(0.99)
	sum.Total.MeanNs = merged.Mean()
	sum.Workers = 0 // set by caller-facing printSummary via cfg
	return sum
}

func rate(n int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

// hitRate is hits over successful responses (errors excluded; partials
// count as non-hits, which undersells overlapping sweeps but keeps the
// metric honest for the common all-or-nothing case).
func hitRate(o opSummary) float64 {
	ok := o.Hits + o.Misses + o.Partial
	if ok == 0 {
		return 0
	}
	return float64(o.Hits) / float64(ok)
}

// printSummary renders the report as text or JSON.
func printSummary(w io.Writer, cfg config, sum *summary) error {
	sum.Workers = cfg.workers
	if cfg.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Fprintf(w, "impact-bench: %d workers, %.1fs against %s\n", cfg.workers, sum.ElapsedSeconds, cfg.base)
	fmt.Fprintf(w, "%-8s %9s %7s %7s %8s %10s %10s %10s\n",
		"op", "requests", "errors", "hit%", "qps", "p50", "p90", "p99")
	row := func(name string, o opSummary) {
		fmt.Fprintf(w, "%-8s %9d %7d %6.1f%% %8.1f %10s %10s %10s\n",
			name, o.Requests, o.Errors, o.HitRate*100, o.QPS,
			time.Duration(o.P50).Round(time.Microsecond),
			time.Duration(o.P90).Round(time.Microsecond),
			time.Duration(o.P99).Round(time.Microsecond))
	}
	for op := opKind(0); op < opCount; op++ {
		row(opNames[op], sum.Ops[opNames[op]])
	}
	row("total", sum.Total)
	if len(sum.Nodes) > 0 {
		// Per-node rows in -cluster order (cfg.base joins the node URLs).
		fmt.Fprintf(w, "per node:\n")
		for _, base := range strings.Split(cfg.base, ",") {
			if o, ok := sum.Nodes[base]; ok {
				row(base, o)
			}
		}
	}
	if p := sum.MachinePool; p != nil {
		fmt.Fprintf(w, "machine pool: %d reset reuses, %d fresh builds, %d shape drops\n",
			p.Hits, p.Misses, p.Drops)
	}
	return nil
}

// fetchMetrics reads the server's /v1/metrics document.
func fetchMetrics(base string) (*api.MetricsDoc, error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	var doc api.MetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}
