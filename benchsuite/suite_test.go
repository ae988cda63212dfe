package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// TestMain lets the test binary serve as the child process, exactly as
// the suite binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkDoc is BENCHMARK.json as the smoke test checks it.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeOps is each workload's op budget in TestSuiteSmoke; a traced run
// splits it over its two halves.
var smokeOps = map[string]int64{"warm-run": 200, "cold-sweep": 20, "durable-jobs": 16, "paper-figures": 1}

// TestSuiteSmoke runs every workload through the suite's own code at toy
// sizes, untraced and traced, and requires every correctness check to
// pass and the output to carry exactly the metrics BENCHMARK.json lists,
// with their units. It asserts no timings.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child servers and runs the paper suite")
	}
	var doc benchmarkDoc
	if err := readJSON("../BENCHMARK.json", &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, suite runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				ops := smokeOps[name]
				if trace {
					ops = max(1, ops/2)
				}
				cfg := config{workload: name, seed: 7, maxOps: ops, trace: trace,
					setupReps: 1, fixture: 48, scratch: t.TempDir()}
				res, failures, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, failures)
				}
				want := map[string]string{}
				if trace {
					for _, m := range doc.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range doc.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for name, v := range res.Metrics {
					if unit, ok := want[name]; !ok || unit != v.Unit {
						t.Errorf("metric %s in %s: BENCHMARK.json has it %t with unit %q", name, v.Unit, ok, unit)
					}
				}
				if trace {
					if _, err := os.Stat(cfg.scratch + "/trace/" + name + ".spans.json"); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestColdSpecsStayCold pins the cold-sweep inputs: the noise seed sits
// in the config, where no grid value overrides it, so distinct ops
// expand to distinct runs.
func TestColdSpecsStayCold(t *testing.T) {
	keys := map[string]int64{}
	for n := int64(0); n < 4; n++ {
		spec, err := exp.ParseSpec(coldSpec(1, n))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := spec.Grid["noise.seed"]; ok {
			t.Fatal("cold spec sweeps noise.seed in its grid")
		}
		x, err := spec.Expansion(exp.MaxRuns)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < x.Total(); i++ {
			r, err := x.RunAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := keys[r.Key]; ok {
				t.Fatalf("ops %d and %d share run %s", prev, n, r.Key)
			}
			keys[r.Key] = n
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, tc := range []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		want        string
	}{
		{"same", steady, []float64{101, 99, 100, 100, 102, 98}, true, "unchanged"},
		{"slower", steady, []float64{120, 121, 119, 120, 122, 118}, true, "regressed"},
		{"faster", steady, []float64{80, 81, 79, 80, 82, 78}, true, "improved"},
		{"faster, one pair lost", steady, []float64{95, 96, 94, 95, 97, 103}, true, "unchanged"},
		{"fewer ops/s", steady, []float64{80, 81, 79, 80, 82, 78}, false, "regressed"},
		{"noisy base", []float64{60, 140, 80, 120, 100, 70}, []float64{101, 99, 100, 100, 102, 98}, true, "unresolved"},
		{"noisy base, head beats all", []float64{60, 140, 80, 120, 100, 70}, []float64{50, 51, 49, 50, 52, 48}, true, "improved"},
	} {
		if got := verdict(tc.base, tc.head, tc.lowerBetter, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestGaugeScaling pins what the host gauge's factor applies to: every
// timing is multiplied by it and the rate divided, while allocation
// counts stay as measured.
func TestGaugeScaling(t *testing.T) {
	ph := phase{
		load:    loadStats{latMs: []float64{1, 2, 3, 4}, attempted: 4, busy: 2 * time.Second},
		rtAfter: runtimeDoc{CPUNs: 8e6, AllocObjects: 40},
	}
	got, err := endToEndMetrics(3, ph, 0.5).export()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"setup_s":              1.5,
		"throughput_ops_s":     4,
		"latency_p50_ms":       1,
		"server_cpu_ms_per_op": 1,
		"server_allocs_per_op": 10,
	} {
		if v := got[name].Value; v != want {
			t.Errorf("%s = %g, want %g", name, v, want)
		}
	}
}

// TestNonFiniteMetricFails pins that a NaN or infinite measurement fails
// the export instead of reading as a value.
func TestNonFiniteMetricFails(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		m := newMetricSet(endToEnd)
		for _, d := range endToEnd {
			m.set(d.name, 1)
		}
		m.set("latency_p50_ms", v)
		if _, err := m.export(); err == nil || !strings.Contains(err.Error(), "latency_p50_ms") {
			t.Errorf("export after setting %g: error %v, want one naming latency_p50_ms", v, err)
		}
	}
}

// TestSelfTime pins self time: duration minus the union of the children,
// clipped to the parent.
func TestSelfTime(t *testing.T) {
	spans := withSelfTimes([]span{
		{Trace: "t", ID: "t", Name: "root", Start: 0, End: 100},
		{Trace: "t", ID: "t/1", Parent: "t", Name: "a", Start: 10, End: 40},
		{Trace: "t", ID: "t/2", Parent: "t", Name: "b", Start: 30, End: 50},
		{Trace: "t", ID: "t/3", Parent: "t", Name: "c", Start: 90, End: 120},
		{Trace: "u", ID: "u/1", Parent: "t", Name: "other trace", Start: 0, End: 100},
	})
	if got := spans[0].Self; got != 50 {
		t.Errorf("root self time %d, want 50", got)
	}
	if got := spans[1].Self; got != 30 {
		t.Errorf("leaf self time %d, want its duration 30", got)
	}
	blob, err := json.Marshal(spans[0])
	if err != nil || !strings.Contains(string(blob), `"self_ns":50`) {
		t.Errorf("span JSON %s (%v) lacks self_ns", blob, err)
	}
}
