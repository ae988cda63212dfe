package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/pkg/api"
)

// TestBenchBudgetRun drives a small request budget against an in-process
// server and checks the whole summary contract: exact request accounting,
// no errors, nonzero QPS, warm-path hits, and populated percentiles.
func TestBenchBudgetRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	ts := httptest.NewServer(exp.NewServer(exp.NewEngine(), exp.WithWorkers(2)).Handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-workers", "4",
		"-requests", "24",
		"-run-frac", "0.5",
		"-json",
		"-smoke",
	}, &out)
	if err != nil {
		t.Fatalf("bench run: %v\n%s", err, out.String())
	}

	// In -json mode stdout must be exactly one machine-parseable document
	// (the smoke verdict goes to stderr).
	var sum summary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("stdout not a single JSON document: %v\n%s", err, out.String())
	}
	if sum.Total.Requests != 24 {
		t.Fatalf("total requests = %d, want the full 24 budget", sum.Total.Requests)
	}
	if sum.Total.Errors != 0 {
		t.Fatalf("errors = %d", sum.Total.Errors)
	}
	if sum.Total.QPS <= 0 {
		t.Fatalf("qps = %f", sum.Total.QPS)
	}
	// After the first cold run/figure, every repeat is a cache hit.
	if sum.Total.Hits == 0 {
		t.Fatal("no cache hits in a warm-heavy mix")
	}
	if sum.Total.HitRate <= 0 || sum.Total.HitRate > 1 {
		t.Fatalf("hit rate = %f", sum.Total.HitRate)
	}
	if sum.Total.P50 <= 0 || sum.Total.P99 < sum.Total.P50 {
		t.Fatalf("percentiles p50=%d p99=%d", sum.Total.P50, sum.Total.P99)
	}
	runOp, figOp := sum.Ops["run"], sum.Ops["figure"]
	if runOp.Requests+figOp.Requests != sum.Total.Requests {
		t.Fatalf("op split %d+%d != total %d", runOp.Requests, figOp.Requests, sum.Total.Requests)
	}
	if runOp.Requests == 0 || figOp.Requests == 0 {
		t.Fatalf("mix degenerate: run=%d figure=%d", runOp.Requests, figOp.Requests)
	}
}

// TestBenchColdRequests checks that -cold forces fresh simulations: unique
// noise.seed patches mean cold runs must miss the result cache.
func TestBenchColdRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	ts := httptest.NewServer(exp.NewServer(exp.NewEngine(), exp.WithWorkers(2)).Handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-workers", "2",
		"-requests", "8",
		"-run-frac", "1",
		"-cold", "1",
		"-json",
	}, &out)
	if err != nil {
		t.Fatalf("bench run: %v\n%s", err, out.String())
	}
	var sum summary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	runOp := sum.Ops["run"]
	if runOp.Requests != 8 || runOp.Errors != 0 {
		t.Fatalf("run op: %+v", runOp)
	}
	if runOp.Hits != 0 || runOp.Misses != 8 {
		t.Fatalf("all-cold mix should only miss: %+v", runOp)
	}
}

// TestColdSpecPatch pins the cold-variant construction: the patch adds a
// unique seed without clobbering sibling config fields or the template.
func TestColdSpecPatch(t *testing.T) {
	base, err := api.ParseRunSpec([]byte(
		`{"scenario": "covert-pnm", "config": {"noise": {"events_per_mcycle": 2}, "llc_ways": 8}}`))
	if err != nil {
		t.Fatal(err)
	}
	patched, err := coldSpec(base, 42)
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Noise struct {
			Seed  int64   `json:"seed"`
			Noise float64 `json:"events_per_mcycle"`
		} `json:"noise"`
		Ways int `json:"llc_ways"`
	}
	if err := json.Unmarshal(patched.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Noise.Seed != 42 || cfg.Noise.Noise != 2 || cfg.Ways != 8 {
		t.Fatalf("patch mangled the config: %s", patched.Config)
	}
	// The patched document still parses as a valid spec server-side.
	blob, err := json.Marshal(patched)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.ParseSpec(blob); err != nil {
		t.Fatalf("patched spec invalid: %v\n%s", err, blob)
	}
	// Distinct seeds produce distinct documents; the template is untouched.
	patched2, err := coldSpec(base, 43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(patched.Config, patched2.Config) {
		t.Fatal("distinct seeds produced identical specs")
	}
	if bytes.Contains(base.Config, []byte(`"seed"`)) {
		t.Fatal("coldSpec mutated the shared template")
	}
}

// TestBenchClusterMode boots a two-node in-process cluster and drives it
// with -cluster: requests rotate across both nodes, every node takes
// traffic, the per-node rows appear in the summary, and their counters
// add up to the total.
func TestBenchClusterMode(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	const n = 2
	servers := make([]*httptest.Server, n)
	members := make([]cluster.Node, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: servers[i].Listener.Addr().String()}
	}
	urls := make([]string, n)
	for i, ts := range servers {
		store, err := cluster.New(cluster.Config{Self: members[i].ID, Nodes: members})
		if err != nil {
			t.Fatal(err)
		}
		srv := exp.NewServer(exp.NewEngine(exp.WithStore(store)), exp.WithWorkers(2))
		ts.Config.Handler = srv.Handler()
		ts.Start()
		urls[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			store.Close()
		})
	}

	var out bytes.Buffer
	err := run([]string{
		"-cluster", urls[0] + "," + urls[1],
		"-workers", "2",
		"-requests", "12",
		"-run-frac", "0.5",
		"-json",
	}, &out)
	if err != nil {
		t.Fatalf("cluster bench run: %v\n%s", err, out.String())
	}
	var sum summary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("stdout not a single JSON document: %v\n%s", err, out.String())
	}
	if sum.Total.Requests != 12 || sum.Total.Errors != 0 {
		t.Fatalf("total: %+v", sum.Total)
	}
	if len(sum.Nodes) != n {
		t.Fatalf("summary has %d node rows, want %d: %v", len(sum.Nodes), n, sum.Nodes)
	}
	var perNode int64
	for _, u := range urls {
		row, ok := sum.Nodes[u]
		if !ok {
			t.Fatalf("no per-node row for %s", u)
		}
		if row.Requests == 0 {
			t.Fatalf("node %s took no traffic: %v", u, sum.Nodes)
		}
		perNode += row.Requests
	}
	if perNode != sum.Total.Requests {
		t.Fatalf("per-node requests %d != total %d", perNode, sum.Total.Requests)
	}
}

// TestBenchFlagValidation pins flag error handling.
func TestBenchFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-workers", "0"},
		{"-run-frac", "1.5"},
		{"-cold", "-0.1"},
		{"-requests", "0", "-duration", "0s"},
		{"-requests", "-5"},
		{"-spec", "/does/not/exist.json"},
		{"-bogus"},
		{"-cluster", "http://a,http://b", "-inprocess"},
		{"-cluster", " , "},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("accepted %v", args)
		}
	}

	// -cold patches noise.seed into the config, and a grid over the seed
	// (or the whole noise section) would override it, turning every cold
	// request warm: the combination fails before any request is sent.
	for _, grid := range []string{`{"noise.seed": [1, 2]}`, `{"noise": [{"seed": 1}]}`} {
		path := filepath.Join(t.TempDir(), "spec.json")
		doc := `{"scenario": "covert-pnm", "grid": ` + grid + `}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-inprocess", "-requests", "1", "-cold", "0.5", "-spec", path}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-cold patches noise.seed") {
			t.Fatalf("-cold with grid %s = %v, want the seed-override error", grid, err)
		}
	}
}
