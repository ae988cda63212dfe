package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/figures"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the service sees, reported by untraced runs.
// BENCHMARK.json lists the same names, units and regression bounds, and
// TestSuiteSmoke holds the two lists equal.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_allocs_per_op", "count"},
}

// perLayer is what a traced run reports, one group per module.
var perLayer = perLayerDefs()

func perLayerDefs() []metricDef {
	defs := []metricDef{
		// pkg/client and exp.Server, from the traced window's spans and
		// the child's counters.
		{"client.request_p50_us", "us"},
		{"client.request_p99_us", "us"},
		{"server.handler_p50_us", "us"},
		{"http.transport_p50_us", "us"},
		{"server.alloc_kb_per_op", "KiB"},
		// pkg/api and internal/exp serving stages, from the layer replay.
		{"api.decode_us", "us"},
		{"exp.expand_us_per_run", "us"},
		{"exp.expand_allocs_per_run", "count"},
		{"exp.cache.get_ns", "ns"},
		{"exp.encode_us", "us"},
		{"exp.encode_allocs", "count"},
		{"exp.engine.runspec_us", "us"},
		// internal/exp cache counters, from the child's /v1/metrics.
		{"exp.cache.hit_ratio", "ratio"},
		{"exp.cache.computes_per_op", "count"},
		{"exp.cache.dedup_hits_per_op", "count"},
		{"exp.cache.computes_per_s", "runs/s"},
		// internal/exp/pack and the journal and jobs path.
		{"exp.pack.open_ms", "ms"},
		{"exp.server.new_ms", "ms"},
		{"exp.pack.get_us", "us"},
		{"exp.pack.put_us", "us"},
		{"exp.pack.hits_per_op", "count"},
		{"exp.pack.stores_per_op", "count"},
		{"exp.pack.index_writes_per_kop", "count"},
		{"exp.jobs.submit_p50_us", "us"},
		{"exp.jobs.stream_p50_us", "us"},
		{"exp.jobs.wait_p50_us", "us"},
		// internal/sim.
		{"sim.pool.get_us", "us"},
		{"sim.pool.get_allocs", "count"},
		{"sim.pool.hit_ratio", "ratio"},
		{"sim.new_ms", "ms"},
		// internal/core.
		{"core.run_pnm_ms", "ms"},
		{"core.run_pum_ms", "ms"},
		{"core.sim_kcycles_per_run", "kcycles"},
		{"core.host_ns_per_sim_cycle", "ns"},
		{"core.sim_mcycles_per_s", "Mcycles/s"},
	}
	// internal/cache, tlb, memctrl, dram and pim: exact per-run counts.
	for _, name := range layerCounts {
		defs = append(defs, metricDef{name, "count"})
	}
	defs = append(defs, metricDef{"dram.row_hit_ratio", "ratio"})
	// The same layers' unit costs.
	for _, name := range unitCosts {
		defs = append(defs, metricDef{name, "ns"})
	}
	// internal/figures.
	for _, id := range figures.IDs() {
		defs = append(defs, metricDef{figureMetric(id), "ms"})
	}
	return append(defs,
		metricDef{"figures.paper_abs_err_pct", "%"},
		// The harness itself.
		metricDef{"harness.gauge_ms", "ms"},
		metricDef{"harness.trace_overhead_pct", "%"},
		metricDef{"harness.server_peak_rss_mb", "MB"},
		metricDef{"harness.client_cpu_ms_per_op", "ms"},
	)
}

// layerCounts are the simulator counters read around every replayed run,
// summed over cores, in the order simCounts stores them.
var layerCounts = []string{
	"cache.l1.hits_per_run", "cache.l1.misses_per_run",
	"cache.l2.hits_per_run", "cache.l2.misses_per_run",
	"cache.llc.hits_per_run", "cache.llc.misses_per_run", "cache.llc.writebacks_per_run",
	"tlb.l1_hits_per_run", "tlb.l2_hits_per_run", "tlb.walks_per_run",
	"memctrl.requests_per_run", "memctrl.act_padded_per_run",
	"dram.row_hits_per_run", "dram.row_empty_per_run", "dram.row_conflicts_per_run", "dram.rowclones_per_run",
	"pim.pei.memory_side_per_run", "pim.pei.host_side_per_run", "pim.rowclone.ops_per_run",
}

// unitCosts are the ns/op loops over single layer calls (see layers.go).
var unitCosts = []string{
	"cache.access_hit_ns", "cache.access_miss_ns", "tlb.translate_ns",
	"memctrl.access_ns", "dram.access_ns", "pim.pei.execute_ns", "pim.rowclone.submit_ns",
}

// figureMetric names the per-artifact generation time of one figure ID.
func figureMetric(id string) string { return "figures." + id + "_ms" }

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the result line of one workload run: the last line of
// standard output when one workload runs.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// The mean host gauge sample here and on the reference host; printed,
	// not in the result line.
	gaugeMs, gaugeRefMs float64
}

// metricSet collects values for one of the two metric lists and rejects
// names outside it, so a typo cannot add a metric BENCHMARK.json lacks.
type metricSet struct {
	defs    []metricDef
	values  map[string]float64
	invalid []string // metrics set to NaN or an infinity: broken measurements
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.invalid = append(s.invalid, fmt.Sprintf("%s=%g", name, v))
				return
			}
			s.values[name] = v
			return
		}
	}
	panic("benchsuite: unknown metric " + name)
}

// export returns the result-line form; every listed metric appears. A
// metric that was never set, or was set to NaN or an infinity, is a
// broken measurement and fails the export rather than reading as a value.
func (s *metricSet) export() (map[string]metricValue, error) {
	if len(s.invalid) > 0 {
		return nil, fmt.Errorf("metrics measured as non-finite: %s", strings.Join(s.invalid, ", "))
	}
	out := make(map[string]metricValue, len(s.defs))
	for _, d := range s.defs {
		v, ok := s.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printMetrics writes one "name value unit" line per metric, in list order.
func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// quantile returns the nearest-rank q-quantile of samples (sorted in
// place); 0 when empty.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return samples[i]
}

// median is the nearest-rank median.
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// ratio divides, answering 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
