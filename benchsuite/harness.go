package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/figures"
	"repro/pkg/api"
)

// harness runs one workload: set-up, the measured window, the checks and,
// when traced, the layer replay and probe.
type harness struct {
	cfg    config
	wl     workload
	child  *child
	runDir string
	gauge  *gauge
}

func (h *harness) startChild(dataDir string) error {
	c, err := startChild(dataDir)
	if err != nil {
		return err
	}
	h.child = c
	return nil
}

// stopChild drains the running child, if any, and waits for it to exit.
func (h *harness) stopChild() error {
	if h.child == nil {
		return nil
	}
	err := h.child.stop()
	h.child = nil
	return err
}

// phase is what the harness observed around one stretch of load.
type phase struct {
	load              loadStats
	rtBefore, rtAfter runtimeDoc
	mBefore, mAfter   api.MetricsDoc
	clientCPU         time.Duration
	serverSpans       []span
}

// runWorkload runs one workload end to end and returns its result line.
// It fails with an error only when the run could not be carried out;
// wrong outputs come back as Correct false with the reasons in failures.
func runWorkload(cfg config) (res runResult, failures []string, err error) {
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return res, nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.scratch, "run"), 0o755); err != nil {
		return res, nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(cfg.scratch, "run"), cfg.workload+"-")
	if err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(runDir)
	syncs := 0
	if _, ok := wl.(*durableJobs); ok {
		syncs = gaugeSyncs // its jobs wait on fsyncs: see gauge.go
	}
	g, err := newGauge(runDir, syncs)
	if err != nil {
		return res, nil, err
	}
	defer g.close()
	h := &harness{cfg: cfg, wl: wl, runDir: runDir, gauge: g}
	defer func() {
		if h.child != nil {
			h.child.kill()
		}
	}()

	setup, err := h.setup()
	if err != nil {
		return res, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	var metrics map[string]metricValue
	var phases []phase
	if !cfg.trace {
		ph, err := h.phase(false, cfg.window)
		if err != nil {
			return res, nil, err
		}
		if g.err != nil {
			return res, nil, g.err
		}
		phases = []phase{ph}
		failures = h.check(phases)
		metrics, err = endToEndMetrics(setup, ph, g.scale()).export()
		if err != nil {
			return res, nil, err
		}
	} else {
		// The first half runs untraced as the overhead baseline.
		for _, traced := range []bool{false, true} {
			ph, err := h.phase(traced, cfg.window/2)
			if err != nil {
				return res, nil, err
			}
			phases = append(phases, ph)
		}
		failures = h.check(phases)
		var layerFailures []string
		metrics, layerFailures, err = h.perLayer(phases[0], phases[1])
		if err != nil {
			return res, nil, err
		}
		failures = append(failures, layerFailures...)
	}
	if err := h.stopChild(); err != nil {
		failures = append(failures, "server drain: "+err.Error())
	}
	for _, ph := range phases {
		res.Attempted += ph.load.attempted
		res.Failed += ph.load.failed
	}
	res.Correct = len(failures) == 0
	res.Metrics = metrics
	res.gaugeMs, res.gaugeRefMs = g.meanMs(), g.meanRefMs()
	return res, failures, nil
}

// setup times the workload's preparation plus the median of its timed
// starts; every start but the last is drained again.
func (h *harness) setup() (float64, error) {
	start := time.Now()
	if err := h.wl.prepare(h); err != nil {
		return 0, err
	}
	prep := time.Since(start).Seconds()
	reps := make([]float64, 0, h.cfg.setupReps)
	for i := 0; i < h.cfg.setupReps; i++ {
		if err := h.stopChild(); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := h.wl.start(h); err != nil {
			return 0, err
		}
		reps = append(reps, time.Since(start).Seconds())
	}
	return prep + median(reps), nil
}

// phase drives the workload's load for one window and brackets it with
// the child's runtime and /v1/metrics counters.
func (h *harness) phase(traced bool, window time.Duration) (phase, error) {
	var ph phase
	var err error
	if ph.mBefore, err = h.child.metrics(); err != nil {
		return ph, err
	}
	if traced {
		if err := h.child.setTrace(true); err != nil {
			return ph, err
		}
	}
	if ph.rtBefore, err = h.child.runtime(); err != nil {
		return ph, err
	}
	cpu := cpuTime()
	base := int64(0)
	if traced {
		base = tracedBase
	}
	ph.load = closedLoop(window, h.cfg.maxOps, traced, h.gauge, func(n int64, tr *clientTrace) error {
		return h.wl.op(h, base+n, tr)
	})
	ph.clientCPU = cpuTime() - cpu
	if ph.rtAfter, err = h.child.runtime(); err != nil {
		return ph, err
	}
	if traced {
		if err := h.child.setTrace(false); err != nil {
			return ph, err
		}
		if ph.serverSpans, err = h.child.spans(); err != nil {
			return ph, err
		}
	}
	ph.mAfter, err = h.child.metrics()
	return ph, err
}

// check collects every correctness failure of the window.
func (h *harness) check(phases []phase) []string {
	var failures []string
	var ops int64
	for _, ph := range phases {
		ops += ph.load.attempted
		if ph.load.failed > 0 {
			failures = append(failures, fmt.Sprintf("%d of %d ops failed; first: %v",
				ph.load.failed, ph.load.attempted, ph.load.firstErr))
		}
	}
	if err := h.wl.check(h, phases[0].mBefore, phases[len(phases)-1].mAfter, ops); err != nil {
		failures = append(failures, err.Error())
	}
	return failures
}

// endToEndMetrics computes the untraced run's metrics over its whole
// window. Timings are multiplied by scale, the host gauge's factor to the
// reference host, and the rate divided by it; allocation counts are not.
func endToEndMetrics(setup float64, ph phase, scale float64) *metricSet {
	ops := float64(ph.load.attempted)
	a, b := ph.rtBefore, ph.rtAfter
	m := newMetricSet(endToEnd)
	m.set("setup_s", setup*scale)
	m.set("throughput_ops_s", ratio(ops, ph.load.busy.Seconds()*scale))
	m.set("latency_p50_ms", quantile(ph.load.latMs, 0.50)*scale)
	m.set("server_cpu_ms_per_op", ratio(float64(b.CPUNs-a.CPUNs)/1e6, ops)*scale)
	m.set("server_allocs_per_op", ratio(float64(b.AllocObjects-a.AllocObjects), ops))
	return m
}

// perLayer computes the traced run's metrics from the window's spans and
// counters, the layer replay and the probe, and writes the spans file.
func (h *harness) perLayer(untraced, traced phase) (map[string]metricValue, []string, error) {
	m := newMetricSet(perLayer)
	var failures []string
	spans := append(traced.serverSpans, traced.load.trace.spans...)
	kept := traced.load.trace.kept
	windowMetrics(m, untraced, traced, spans, kept)
	if h.gauge.err != nil {
		return nil, nil, h.gauge.err
	}
	m.set("harness.gauge_ms", h.gauge.meanMs())

	rp, err := newReplayer(filepath.Join(h.runDir, "replay"))
	if err != nil {
		return nil, nil, err
	}
	defer rp.close()
	sample := firstOps(kept, replayOps)
	if err := h.wl.replay(rp, sample); err != nil {
		failures = append(failures, "layer replay: "+err.Error())
	}
	workloadSims := len(rp.sims)
	reps, err := rp.probe(m)
	if err != nil {
		return nil, nil, err
	}
	if err := checkFigures(renderSuite(reps)); err != nil {
		failures = append(failures, "probe: "+err.Error())
	}
	// The probe's default-machine runs stand in for a workload that
	// simulates nothing the replay can watch (paper-figures).
	if workloadSims > 0 {
		rp.sims, rp.simConfigs = rp.sims[:workloadSims], rp.simConfigs[:workloadSims]
	}
	// The serving stages come from the replayed ops, or, on paper-figures,
	// which keeps none, from the probe's trip of each artifact through them.
	stage, specs := "replay-", make([][]byte, 0, len(sample))
	for _, op := range sample {
		specs = append(specs, op.spec)
	}
	if len(sample) == 0 {
		stage, specs = "figures-", nil
		for _, id := range figures.IDs() {
			specs = append(specs, []byte(fmt.Sprintf(`{"scenario":%q,"scale":"quick"}`, id)))
		}
	}
	if err := rp.layerMetrics(m, stage, specs); err != nil {
		return nil, nil, err
	}

	// The job path: the window's own jobs on durable-jobs, else a probe.
	jobSpans := spans
	if _, ok := h.wl.(*durableJobs); !ok {
		if jobSpans, err = h.jobProbe(); err != nil {
			return nil, nil, err
		}
		spans = append(spans, jobSpans...)
	}
	for _, step := range []string{"submit", "stream", "wait"} {
		m.set("exp.jobs."+step+"_p50_us", median(durations(jobSpans, "job."+step, ""))/1e3)
	}

	spans = append(spans, rp.spans...)
	dir := filepath.Join(h.cfg.scratch, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeSpans(filepath.Join(dir, h.cfg.workload+".spans.json"), h.cfg.workload, spans); err != nil {
		return nil, nil, err
	}
	out, err := m.export()
	return out, failures, err
}

// windowMetrics sets the metrics read off the traced window: span
// percentiles, the child's counters, and the harness's own costs.
func windowMetrics(m *metricSet, untraced, traced phase, spans []span, kept []keptOp) {
	server := map[string][]span{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			server[s.Trace] = append(server[s.Trace], s)
		}
	}
	var roots, transport, handler []float64
	for _, s := range spans {
		switch {
		case s.Name == "server.handler":
			handler = append(handler, float64(s.dur()))
		case s.Parent == "" && strings.HasPrefix(s.Name, "op."):
			roots = append(roots, float64(s.dur()))
			transport = append(transport, float64(s.dur()-covered(s, server[s.Trace])))
		}
	}
	m.set("client.request_p50_us", median(roots)/1e3)
	m.set("client.request_p99_us", quantile(roots, 0.99)/1e3)
	m.set("server.handler_p50_us", median(handler)/1e3)
	m.set("http.transport_p50_us", median(transport)/1e3)
	m.set("server.alloc_kb_per_op", ratio(float64(untraced.rtAfter.AllocBytes-untraced.rtBefore.AllocBytes)/1024,
		float64(untraced.load.attempted)))

	before, after := untraced.mBefore, traced.mAfter
	ops := float64(untraced.load.attempted + traced.load.attempted)
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	computes := float64(after.Cache.Computes - before.Cache.Computes)
	m.set("exp.cache.hit_ratio", ratio(hits, hits+misses))
	m.set("exp.cache.computes_per_op", ratio(computes, ops))
	m.set("exp.cache.dedup_hits_per_op", ratio(float64(after.Cache.DedupHits-before.Cache.DedupHits), ops))
	m.set("exp.cache.computes_per_s", ratio(computes, (untraced.load.busy+traced.load.busy).Seconds()))
	var packHits, packStores, indexWrites float64
	if before.Pack != nil && after.Pack != nil {
		packHits = float64(after.Pack.Hits - before.Pack.Hits)
		packStores = float64(after.Pack.Stores - before.Pack.Stores)
		indexWrites = float64(after.Pack.IndexWrites - before.Pack.IndexWrites)
	}
	m.set("exp.pack.hits_per_op", ratio(packHits, ops))
	m.set("exp.pack.stores_per_op", ratio(packStores, ops))
	m.set("exp.pack.index_writes_per_kop", ratio(1000*indexWrites, ops))
	m.set("exp.server.new_ms", float64(traced.rtAfter.ServerNewNs)/1e6)

	var simulated float64
	for _, op := range kept {
		for _, i := range op.simulated {
			if c, err := transmissionCycles(op.runs[i].Report); err == nil {
				simulated += float64(c)
			}
		}
	}
	m.set("core.sim_mcycles_per_s", ratio(simulated/1e6, traced.load.busy.Seconds()))

	m.set("harness.trace_overhead_pct",
		100*(ratio(quantile(traced.load.latMs, 0.5), quantile(untraced.load.latMs, 0.5))-1))
	m.set("harness.server_peak_rss_mb", float64(traced.rtAfter.PeakRSSKB)/1024)
	m.set("harness.client_cpu_ms_per_op", ratio(float64(untraced.clientCPU.Nanoseconds())/1e6,
		float64(untraced.load.attempted)))
}

// durations lists the durations of the spans with the given name whose
// trace starts with tracePrefix.
func durations(spans []span, name, tracePrefix string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && strings.HasPrefix(s.Trace, tracePrefix) {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// jobProbeJobs is how many jobs the probe submits on workloads whose
// window runs none.
const jobProbeJobs = 16

// jobProbe runs small covert-pum jobs against the child one at a time and
// returns their client spans.
func (h *harness) jobProbe() ([]span, error) {
	c, err := newJobClient(h.child.base)
	if err != nil {
		return nil, err
	}
	tr := &clientTrace{}
	for i := int64(0); i < jobProbeJobs; i++ {
		k := probeBase + 4*i
		s := h.cfg.seed
		spec := jobSpec(noiseSeed(s, k), noiseSeed(s, k+1), noiseSeed(s, k+2), noiseSeed(s, k+3))
		info, runs, err := runJob(c, fmt.Sprintf("job-probe-%d", i), spec, tr)
		if err != nil {
			return nil, err
		}
		if info.Status != api.JobDone || len(runs) != 4 {
			return nil, fmt.Errorf("probe job %s ended %s with %d runs", info.ID, info.Status, len(runs))
		}
	}
	return tr.spans, nil
}
