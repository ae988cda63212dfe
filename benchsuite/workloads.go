package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/figures"
	"repro/pkg/api"
	"repro/pkg/client"
)

// workloadNames lists the workloads in suite order.
var workloadNames = []string{"warm-run", "cold-sweep", "durable-jobs", "paper-figures"}

// Every input derives from the run seed s: noise seed s*seedStride+k,
// with k in disjoint ranges per role, so the same seed makes the same
// inputs and no two roles share a simulation. Ops are numbered from 0, or
// from tracedBase in a traced half; a window stays under 100 000 ops.
const (
	seedStride = 1_000_000
	tracedBase = 100_000
	freshBase  = 500_000 // durable-jobs: the one simulated run of job n
	primeBase  = 800_000 // set-up priming ops
	probeBase  = 900_000 // the traced run's job probe
)

func noiseSeed(seed, k int64) int64 { return seed*seedStride + k }

// config is one workload run's parameters.
type config struct {
	workload  string
	seed      int64
	window    time.Duration // measured window; a traced run splits it in two
	maxOps    int64         // > 0: a load phase ends after this many ops instead
	trace     bool
	setupReps int    // timed set-ups; setup_s is their median
	fixture   int    // durable-jobs results stored before the restart
	scratch   string // data dirs and span files live under it
}

// workload is one traffic mix. The harness times prepare plus the median
// start as set-up, then drives op in a closed loop and runs check and
// (traced) replay after the window.
type workload interface {
	// prepare runs once before the timed starts.
	prepare(h *harness) error
	// start launches h.child and primes it.
	start(h *harness) error
	// op runs op n.
	op(h *harness, n int64, tr *clientTrace) error
	// check verifies the window's outputs; before and after bracket it.
	check(h *harness, before, after api.MetricsDoc, ops int64) error
	// replay re-runs a sample of the traced ops through the layers.
	replay(rp *replayer, kept []keptOp) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "warm-run":
		return &warmRun{}, nil
	case "cold-sweep":
		return &coldSweep{hashes: map[int64][sha256.Size]byte{}}, nil
	case "durable-jobs":
		return &durableJobs{}, nil
	case "paper-figures":
		return &paperFigures{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// warmUp runs n ops before timing starts, so the heap, the GC pacing,
// the machine pool and the connection are in their steady state when the
// window opens; it returns the first failure.
func warmUp(n int64, op func(n int64) error) error {
	for i := int64(0); i < n; i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// requestID names op n of a workload; it is the op's trace ID.
func requestID(workload string, n int64) string { return fmt.Sprintf("%s-%d", workload, n) }

// warmRun repeats one 2x2 covert-pnm sweep: every request is four
// memory-tier hits, so all time goes to the serving stack.
type warmRun struct {
	spec   []byte
	primed []byte
	runs   []api.RunResult
	client *http.Client
}

func (wl *warmRun) prepare(h *harness) error {
	wl.spec = []byte(fmt.Sprintf(`{"scenario":"covert-pnm","scale":"quick","config":{"noise":{"seed":%d}},`+
		`"grid":{"llc_bytes":[4194304,8388608],"mem.defense":["none","crp"]}}`, h.cfg.seed))
	wl.client = newLoadClient()
	return nil
}

// start primes the memory tier with one request, then warms up.
func (wl *warmRun) start(h *harness) error {
	if err := h.startChild(""); err != nil {
		return err
	}
	wl.client.CloseIdleConnections() // to a child an earlier start drained
	status, hdr, body, err := post(h.child.ctl, h.child.base+"/v1/run", wl.spec, "warm-run-prime")
	if err != nil {
		return err
	}
	if status != http.StatusOK || hdr.Get(api.HeaderCache) != "miss" {
		return fmt.Errorf("priming request: status %d, X-Cache %q", status, hdr.Get(api.HeaderCache))
	}
	var res api.SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	wl.primed, wl.runs = body, res.Runs
	return warmUp(500, func(n int64) error { return wl.op(h, n, nil) })
}

func (wl *warmRun) op(h *harness, n int64, tr *clientTrace) error {
	id := requestID("warm-run", n)
	start := time.Now()
	status, hdr, body, err := post(wl.client, h.child.base+"/v1/run", wl.spec, id)
	if tr != nil {
		tr.add(id, id, "", "op.run", start, time.Now())
		tr.kept = append(tr.kept, keptOp{n: n, spec: wl.spec, runs: wl.runs})
	}
	switch {
	case err != nil:
		return err
	case status != http.StatusOK || hdr.Get(api.HeaderCache) != "hit":
		return fmt.Errorf("warm request: status %d, X-Cache %q", status, hdr.Get(api.HeaderCache))
	case !bytes.Equal(body, wl.primed):
		return errors.New("warm request: body differs from the primed body")
	}
	return nil
}

func (wl *warmRun) check(*harness, api.MetricsDoc, api.MetricsDoc, int64) error { return nil }

func (wl *warmRun) replay(rp *replayer, kept []keptOp) error { return rp.replayRunOps(kept, false) }

// coldSweep posts a 2-point covert-pnm sweep with a fresh noise seed per
// request: every request runs two simulations, so simulator time
// dominates.
type coldSweep struct {
	seed   int64
	starts int64
	client *http.Client
	hashes map[int64][sha256.Size]byte // op -> body checksum
}

// coldSpec is op n's sweep. The noise seed goes in the config, never in
// the grid: a grid value would override it and turn cold traffic warm.
func coldSpec(seed, n int64) []byte {
	return []byte(fmt.Sprintf(`{"scenario":"covert-pnm","scale":"quick","config":{"noise":{"seed":%d}},`+
		`"grid":{"llc_bytes":[4194304,8388608]}}`, noiseSeed(seed, n)))
}

func (wl *coldSweep) prepare(h *harness) error {
	wl.seed = h.cfg.seed
	wl.client = newLoadClient()
	return nil
}

// start warms up with cold requests of their own seeds, which also puts
// a machine of each shape in the pool.
func (wl *coldSweep) start(h *harness) error {
	if err := h.startChild(""); err != nil {
		return err
	}
	wl.client.CloseIdleConnections()
	k := primeBase + 1000*wl.starts
	wl.starts++
	return warmUp(100, func(n int64) error {
		status, hdr, _, err := post(wl.client, h.child.base+"/v1/run", coldSpec(wl.seed, k+n), "cold-sweep-warm-up")
		if err != nil {
			return err
		}
		if status != http.StatusOK || hdr.Get(api.HeaderCache) != "miss" {
			return fmt.Errorf("warm-up request: status %d, X-Cache %q", status, hdr.Get(api.HeaderCache))
		}
		return nil
	})
}

func (wl *coldSweep) op(h *harness, n int64, tr *clientTrace) error {
	id := requestID("cold-sweep", n)
	spec := coldSpec(wl.seed, n)
	start := time.Now()
	status, hdr, body, err := post(wl.client, h.child.base+"/v1/run", spec, id)
	if tr != nil {
		tr.add(id, id, "", "op.run", start, time.Now())
	}
	if err != nil {
		return err
	}
	if status != http.StatusOK || hdr.Get(api.HeaderCache) != "miss" || hdr.Get(api.HeaderCacheMisses) != "2" {
		return fmt.Errorf("cold request: status %d, X-Cache %q, misses %q",
			status, hdr.Get(api.HeaderCache), hdr.Get(api.HeaderCacheMisses))
	}
	wl.hashes[n] = sha256.Sum256(body)
	if tr != nil {
		var res api.SweepResult
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		tr.kept = append(tr.kept, keptOp{n: n, spec: spec, runs: res.Runs, simulated: []int{0, 1}})
	}
	return nil
}

// coldRecheck is how many cold specs are posted again after the window,
// drawn from the last coldRecent ops: the memory tier holds 16384 runs
// and evicts the oldest first, so earlier specs may rightly miss again.
const (
	coldRecheck = 32
	coldRecent  = 2000
)

// check re-posts a seeded sample of the window's recent specs: each must
// now be a cache hit with the body it first got.
func (wl *coldSweep) check(h *harness, _, _ api.MetricsDoc, _ int64) error {
	ops := make([]int64, 0, len(wl.hashes))
	for n := range wl.hashes {
		ops = append(ops, n)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	ops = ops[max(0, len(ops)-coldRecent):]
	rng := rand.New(rand.NewSource(h.cfg.seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, n := range ops[:min(coldRecheck, len(ops))] {
		status, hdr, body, err := post(h.child.ctl, h.child.base+"/v1/run", coldSpec(wl.seed, n), "cold-sweep-recheck")
		if err != nil {
			return err
		}
		if status != http.StatusOK || hdr.Get(api.HeaderCache) != "hit" {
			return fmt.Errorf("re-posted cold spec %d: status %d, X-Cache %q", n, status, hdr.Get(api.HeaderCache))
		}
		if sha256.Sum256(body) != wl.hashes[n] {
			return fmt.Errorf("re-posted cold spec %d: body differs from the first answer", n)
		}
	}
	return nil
}

func (wl *coldSweep) replay(rp *replayer, kept []keptOp) error { return rp.replayRunOps(kept, false) }

// durableJobs submits 4-run covert-pum jobs against a server restarted
// over a pack store and job journal: each job reads three stored results
// from the pack, simulates one, appends it, and journals its lifecycle.
type durableJobs struct {
	seed    int64
	fixture int64
	dataDir string
	client  *client.Client
	starts  int64
	cursor  int64 // next fixture result to read, across phases
}

// fixtureChunk is the most runs one fill request expands into.
const fixtureChunk = exp.MaxRuns

// prepare has a first server fill the data dir with the fixture results
// and drain on SIGTERM, as an operator's restart would.
func (wl *durableJobs) prepare(h *harness) error {
	wl.seed, wl.fixture = h.cfg.seed, int64(h.cfg.fixture)
	wl.dataDir = filepath.Join(h.runDir, "data")
	if err := h.startChild(wl.dataDir); err != nil {
		return err
	}
	for lo := int64(0); lo < wl.fixture; lo += fixtureChunk {
		hi := min(lo+fixtureChunk, wl.fixture)
		seeds := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			seeds = append(seeds, strconv.FormatInt(noiseSeed(wl.seed, i), 10))
		}
		spec := `{"scenario":"covert-pum","scale":"quick","grid":{"noise.seed":[` + strings.Join(seeds, ",") + `]}}`
		status, hdr, _, err := post(h.child.ctl, h.child.base+"/v1/run", []byte(spec), "durable-jobs-fill")
		if err != nil {
			return err
		}
		if status != http.StatusOK || hdr.Get(api.HeaderCacheMisses) != strconv.FormatInt(hi-lo, 10) {
			return fmt.Errorf("fixture fill: status %d, misses %q", status, hdr.Get(api.HeaderCacheMisses))
		}
	}
	return h.stopChild()
}

// start restarts the server over the filled data dir and primes it with
// one job of fresh seeds, leaving the fixture untouched.
func (wl *durableJobs) start(h *harness) error {
	if err := h.startChild(wl.dataDir); err != nil {
		return err
	}
	c, err := newJobClient(h.child.base)
	if err != nil {
		return err
	}
	wl.client = c
	k := primeBase + 4*wl.starts
	wl.starts++
	spec := jobSpec(noiseSeed(wl.seed, k), noiseSeed(wl.seed, k+1), noiseSeed(wl.seed, k+2), noiseSeed(wl.seed, k+3))
	info, _, err := runJob(wl.client, "durable-jobs-prime", spec, nil)
	if err != nil {
		return err
	}
	if info.Status != api.JobDone {
		return fmt.Errorf("priming job ended %s", info.Status)
	}
	return nil
}

// newJobClient is a load client of the job API: retries off, since a load
// generator must see failures, and a fast first status poll.
func newJobClient(base string) (*client.Client, error) {
	return client.New(base, client.WithHTTPClient(newLoadClient()),
		client.WithTimeout(0), client.WithRetry(0, 0), client.WithPollInterval(time.Millisecond))
}

// jobSpec is a 4-point noise-seed grid of covert-pum runs.
func jobSpec(a, b, c, d int64) api.RunSpec {
	grid := make([]json.RawMessage, 0, 4)
	for _, s := range []int64{a, b, c, d} {
		grid = append(grid, json.RawMessage(strconv.FormatInt(s, 10)))
	}
	return api.RunSpec{Scenario: "covert-pum", Scale: "quick", Grid: map[string][]json.RawMessage{"noise.seed": grid}}
}

// op n reads the next three fixture results, cycling through the fixture,
// and simulates one fresh seed. The fixture outnumbers the memory tier's
// entries, so by the time a result comes round again it has been evicted
// from memory and is a pack read once more.
func (wl *durableJobs) op(h *harness, n int64, tr *clientTrace) error {
	c := wl.cursor
	wl.cursor += 3
	fix := func(i int64) int64 { return noiseSeed(wl.seed, (c+i)%wl.fixture) }
	spec := jobSpec(fix(0), fix(1), fix(2), noiseSeed(wl.seed, freshBase+n))
	info, runs, err := runJob(wl.client, requestID("durable-jobs", n), spec, tr)
	if err != nil {
		return err
	}
	if info.Status != api.JobDone || info.Hits != 3 || info.Misses != 1 || len(runs) != 4 {
		return fmt.Errorf("job %s: status %s, hits %d, misses %d, %d streamed runs",
			info.ID, info.Status, info.Hits, info.Misses, len(runs))
	}
	if tr != nil {
		blob, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		tr.kept = append(tr.kept, keptOp{n: n, spec: blob, runs: runs, simulated: []int{3}})
	}
	return nil
}

// runJob submits spec, drains its result stream and waits for the
// terminal status, recording one span per step when tr is non-nil.
func runJob(c *client.Client, id string, spec api.RunSpec, tr *clientTrace) (*api.JobInfo, []api.RunResult, error) {
	ctx := api.WithRequestID(context.Background(), id)
	step := func(name string, start time.Time) {
		if tr != nil {
			tr.add(id, id+"/"+name, id, name, start, time.Now())
		}
	}
	start := time.Now()
	defer func() {
		if tr != nil {
			tr.add(id, id, "", "op.job", start, time.Now())
		}
	}()
	t := time.Now()
	sub, err := c.SubmitJob(ctx, spec)
	step("job.submit", t)
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	stream, err := c.StreamJob(ctx, sub.ID)
	if err != nil {
		return nil, nil, err
	}
	var runs []api.RunResult
	for {
		rr, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			stream.Close()
			return nil, nil, err
		}
		runs = append(runs, rr)
	}
	stream.Close()
	step("job.stream", t)
	t = time.Now()
	info, err := c.WaitJob(ctx, sub.ID)
	step("job.wait", t)
	return info, runs, err
}

// check holds the pack to exactly three reads per job: a fixture result
// served from memory instead would mean the workload lost its shape.
func (wl *durableJobs) check(_ *harness, before, after api.MetricsDoc, ops int64) error {
	if before.Pack == nil || after.Pack == nil {
		return errors.New("durable server reports no pack section")
	}
	if got := after.Pack.Hits - before.Pack.Hits; got != 3*ops {
		return fmt.Errorf("pack hits grew by %d over %d jobs, want %d", got, ops, 3*ops)
	}
	return nil
}

func (wl *durableJobs) replay(rp *replayer, kept []keptOp) error { return rp.replayRunOps(kept, true) }

// paperFigures regenerates the 14 quick-scale paper artifacts per op, one
// after another: the repository's primary user job.
type paperFigures struct {
	hc *http.Client
}

//go:embed testdata/paper-figures-quick.sha256
var pinnedFiguresFile string

// pinFile is where -update rewrites the checksum, from the repository root.
const pinFile = "benchsuite/testdata/paper-figures-quick.sha256"

func pinnedFigures() string { return strings.TrimSpace(pinnedFiguresFile) }

func checkFigures(body []byte) error {
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != pinnedFigures() {
		return fmt.Errorf("rendered quick suite has SHA-256 %s, want %s (see -update)", got, pinnedFigures())
	}
	return nil
}

func (wl *paperFigures) prepare(*harness) error {
	wl.hc = newLoadClient()
	return nil
}

// start runs one warm-up suite.
func (wl *paperFigures) start(h *harness) error {
	if err := h.startChild(""); err != nil {
		return err
	}
	wl.hc.CloseIdleConnections()
	return wl.suite(h, "paper-figures-prime", func() {})
}

// op runs a suite with the host gauge ticking between its artifacts, so a
// run of suites seconds long is gauged as evenly as one of short requests.
func (wl *paperFigures) op(h *harness, n int64, tr *clientTrace) error {
	id := requestID("paper-figures", n)
	start := time.Now()
	err := wl.suite(h, id, h.gauge.tick)
	if tr != nil {
		tr.add(id, id, "", "op.figures", start, time.Now())
	}
	return err
}

// suite requests the artifacts one at a time, in registry order, calling
// between before each, and checks the whole rendering.
func (wl *paperFigures) suite(h *harness, id string, between func()) error {
	var body []byte
	for _, fig := range figures.IDs() {
		between()
		status, _, b, err := post(wl.hc, h.child.base+"/_bench/figures?id="+fig, nil, id)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("figure %s: status %d: %s", fig, status, b)
		}
		body = append(body, b...)
	}
	return checkFigures(body)
}

func (wl *paperFigures) check(*harness, api.MetricsDoc, api.MetricsDoc, int64) error { return nil }

// replay has nothing of its own: every traced run's probe already drives
// each artifact through the serving stages and checks the rendering.
func (wl *paperFigures) replay(*replayer, []keptOp) error { return nil }
