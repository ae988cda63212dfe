package exp

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/memctrl"
)

// gridSpec is the canonical test sweep: a 3x2 grid over LLC size and
// defense on the PnM covert channel (6 concrete runs).
const gridSpec = `{
	"scenario": "covert-pnm",
	"scale": "quick",
	"config": {"enable_prefetchers": false},
	"grid": {
		"llc_bytes": [4194304, 8388608, 16777216],
		"mem.defense": ["none", "crp"]
	}
}`

// expandAll lists spec's runs in expansion order through
// Expansion(MaxRuns) and RunAt, failing the test on any expansion error.
func expandAll(t testing.TB, spec Spec) []Run {
	t.Helper()
	x, err := spec.Expansion(MaxRuns)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]Run, x.Total())
	for i := range runs {
		if runs[i], err = x.RunAt(i); err != nil {
			t.Fatal(err)
		}
	}
	return runs
}

func mustExpand(t *testing.T, doc string) []Run {
	t.Helper()
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return expandAll(t, spec)
}

// TestExpandGrid checks the Cartesian expansion: size, order determinism,
// resolved configs, parameter labels, and key uniqueness.
func TestExpandGrid(t *testing.T) {
	runs := mustExpand(t, gridSpec)
	if len(runs) != 6 {
		t.Fatalf("expanded %d runs, want 6", len(runs))
	}
	keys := map[string]bool{}
	for _, r := range runs {
		if keys[r.Key] {
			t.Fatalf("duplicate key %s", r.Key)
		}
		keys[r.Key] = true
		if r.Config.EnablePrefetchers {
			t.Fatal("base config override lost")
		}
		if r.Params["llc_bytes"] == "" || r.Params["mem.defense"] == "" {
			t.Fatalf("grid point unlabeled: %v", r.Params)
		}
	}
	// Grid paths iterate sorted ("llc_bytes" before "mem.defense"), last
	// path fastest: the first two runs share the smallest LLC.
	if runs[0].Config.LLCBytes != 4<<20 || runs[1].Config.LLCBytes != 4<<20 {
		t.Fatalf("row-major order broken: %v %v", runs[0].Params, runs[1].Params)
	}
	if runs[0].Config.Mem.Defense != memctrl.DefenseNone || runs[1].Config.Mem.Defense != memctrl.DefenseClosedRow {
		t.Fatalf("inner axis order broken: %v %v", runs[0].Params, runs[1].Params)
	}

	// Expansion is a pure function of the spec.
	again := mustExpand(t, gridSpec)
	for i := range runs {
		if runs[i].Key != again[i].Key || !reflect.DeepEqual(runs[i].Params, again[i].Params) {
			t.Fatalf("expansion not deterministic at run %d", i)
		}
	}
}

// TestExpandKeyCanonicalization checks that equivalent value spellings
// collapse to the same content address, and that distinct configs do not.
func TestExpandKeyCanonicalization(t *testing.T) {
	a := mustExpand(t, `{"scenario": "covert-pnm", "config": {"noise": {"events_per_mcycle": 3.5}}}`)
	b := mustExpand(t, `{"scenario": "covert-pnm", "config": {"noise": {"events_per_mcycle": 0.35e1}}}`)
	if a[0].Key != b[0].Key {
		t.Fatalf("equivalent configs hash differently: %s vs %s", a[0].Key, b[0].Key)
	}
	c := mustExpand(t, `{"scenario": "covert-pnm", "config": {"llc_bytes": 4194304}}`)
	if a[0].Key == c[0].Key {
		t.Fatal("distinct configs collide")
	}
	d := mustExpand(t, `{"scenario": "rowbuffer", "scale": "full"}`)
	e := mustExpand(t, `{"scenario": "rowbuffer"}`)
	if d[0].Key == e[0].Key {
		t.Fatal("scale not part of the content address")
	}
}

// TestExpansionConcurrentRunAt builds every run of one Expansion from 8
// goroutines at once and requires each to equal its sequential build.
// The spec's overlay, its section-valued grid values and the default
// config shape are shared by every RunAt call, so a call that wrote into
// any of them would race here (make race runs this test).
func TestExpansionConcurrentRunAt(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"scenario": "covert-pnm",
		"config": {"mem": {"defense": "crp", "act": {"epoch_cycles": 5200}}, "dram": {"timing": {"trp": 30}}},
		"grid": {
			"dram.timing.trcd": [10, 20],
			"mem.act.conflict_threshold": [4, 8],
			"mem.request_overhead": [0, 20],
			"noise": [{"seed": 9}, null, {"events_per_mcycle": 0}]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want := expandAll(t, spec)
	x, err := spec.Expansion(MaxRuns)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([][]Run, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]Run, x.Total())
			// Each worker starts at its own offset so different runs are
			// built at the same moment.
			for n := range x.Total() {
				i := (n + w*x.Total()/workers) % x.Total()
				if got[w][i], errs[w] = x.RunAt(i); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i, r := range got[w] {
			if r.Key != want[i].Key || !reflect.DeepEqual(r.Config, want[i].Config) || !reflect.DeepEqual(r.Params, want[i].Params) {
				t.Fatalf("worker %d run %d = %s %v, want %s %v", w, i, r.Key, r.Params, want[i].Key, want[i].Params)
			}
		}
	}
}

// TestExpandErrors checks the failure contract: unknown scenarios carry
// ErrUnknownScenario, bad grid paths and values name the field. Grid paths
// may not overlap, and a key that matches a config field only up to case
// is an unknown field wherever it appears.
func TestExpandErrors(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"scenario": "covert-warp"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Expansion(MaxRuns); !errors.Is(err, ErrUnknownScenario) {
		t.Fatalf("want ErrUnknownScenario, got %v", err)
	}

	cases := []struct{ name, doc, want string }{
		{"unknown grid field", `{"scenario": "covert-pnm", "grid": {"llcbytes": [1]}}`, "llcbytes"},
		{"grid through scalar", `{"scenario": "covert-pnm", "grid": {"cores.deep": [1]}}`, "cores"},
		{"empty grid axis", `{"scenario": "covert-pnm", "grid": {"llc_bytes": []}}`, "no values"},
		{"invalid value", `{"scenario": "covert-pnm", "grid": {"llc_ways": [-4]}}`, "llc_ways"},
		{"unknown spec field", `{"scenario": "covert-pnm", "grids": {}}`, "grids"},
		{"grid on figure replay", `{"scenario": "rowbuffer", "grid": {"llc_bytes": [4194304]}}`, "ignores sim.Config"},
		{"config on figure replay", `{"scenario": "rowbuffer", "config": {"llc_bytes": 4194304}}`, "ignores sim.Config"},
		{"overlapping grid paths", `{"scenario": "covert-pnm", "grid": {"noise": [{"seed": 1}], "noise.seed": [2, 3]}}`,
			`exp: grid fields "noise" and "noise.seed" overlap`},
		{"overlapping deep grid paths", `{"scenario": "covert-pnm", "grid": {"mem.act": [{"epoch_cycles": 2600}], "mem.act.conflict_threshold": [4, 8]}}`,
			`exp: grid fields "mem.act" and "mem.act.conflict_threshold" overlap`},
		{"case-variant grid path", `{"scenario": "covert-pnm", "grid": {"LLC_bytes": [4194304, 8388608]}}`,
			`exp: grid point LLC_bytes=4194304: sim: config: unknown field "LLC_bytes"`},
		{"case-variant grid leaf", `{"scenario": "covert-pnm", "grid": {"mem.Defense": ["crp"]}}`,
			`sim: config: unknown field "Defense"`},
		{"case-variant overlay field", `{"scenario": "covert-pnm", "config": {"LLC_BYTES": 4194304}}`,
			`exp: sim: config: unknown field "LLC_BYTES"`},
		{"case-variant overlay section", `{"scenario": "covert-pnm", "config": {"MEM": {"defense": "crp"}}}`,
			`sim: config: unknown field "MEM"`},
		{"case-variant nested overlay field", `{"scenario": "covert-pnm", "config": {"dram": {"timing": {"tRCD": 5}}}, "grid": {"llc_ways": [8, 16]}}`,
			`sim: config: unknown field "tRCD"`},
		{"case-variant key in a grid value", `{"scenario": "covert-pnm", "grid": {"mem": [{"Request_Overhead": 20}]}}`,
			`sim: config: unknown field "Request_Overhead"`},
		{"least case-variant key wins", `{"scenario": "covert-pnm", "config": {"noise": {"Seed": 1}, "Cores": 2, "mem": {"Defense": "crp"}}}`,
			`unknown field "Cores"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec([]byte(tc.doc))
			if err == nil {
				_, err = spec.Expansion(MaxRuns)
			}
			if err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A case-variant key inside a section-valued grid value fails at its
	// own grid point, like any other invalid value after the first.
	spec, err = ParseSpec([]byte(`{"scenario": "covert-pnm", "grid": {"mem": [{"defense": "crp"}, {"Request_Overhead": 20}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	x, err := spec.Expansion(MaxRuns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunAt(1); err == nil || !strings.Contains(err.Error(), `unknown field "Request_Overhead"`) {
		t.Fatalf("RunAt(1) = %v, want the case-variant key rejected", err)
	}

	// Oversized grids are rejected before any simulation.
	big := `{"scenario": "covert-pnm", "grid": {"noise.seed": [` + seq(100) + `], "llc_ways": [` + seq(100) + `]}}`
	spec, err = ParseSpec([]byte(big))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Expansion(MaxRuns); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("oversized grid not rejected: %v", err)
	}
}

// seq renders "1, 2, ..., n".
func seq(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(parts, ", ")
}

// TestCacheCounters pins the content-addressed cache contract.
func TestCacheCounters(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get(context.Background(), "k"); ok {
		t.Fatal("phantom entry")
	}
	c.Put(context.Background(), "k", json.RawMessage(`{"a":1}`))
	blob, ok := c.Get(context.Background(), "k")
	if !ok || string(blob) != `{"a":1}` {
		t.Fatalf("lookup = %q, %v", blob, ok)
	}
	// First store wins; duplicates do not bump the store counter.
	c.Put(context.Background(), "k", json.RawMessage(`{"a":2}`))
	blob, _ = c.Get(context.Background(), "k")
	if string(blob) != `{"a":1}` {
		t.Fatal("duplicate store replaced the entry")
	}
	if c.Hits() != 2 || c.Misses() != 1 || c.Len() != 1 {
		t.Fatalf("counters hits=%d misses=%d len=%d, want 2/1/1", c.Hits(), c.Misses(), c.Len())
	}
}

// TestEngineCacheAndDeterminism is the core tentpole invariant: a repeated
// sweep is served entirely from cache and marshals byte-identically, and
// the worker count cannot change a single output byte.
func TestEngineCacheAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	spec, err := ParseSpec([]byte(gridSpec))
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	first, err := eng.RunSpec(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Hits != 0 || first.Misses != 6 {
		t.Fatalf("cold sweep hits=%d misses=%d, want 0/6", first.Hits, first.Misses)
	}
	second, err := eng.RunSpec(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if second.Hits != 6 || second.Misses != 0 {
		t.Fatalf("warm sweep hits=%d misses=%d, want 6/0", second.Hits, second.Misses)
	}
	for _, r := range second.Runs {
		if !r.Cached {
			t.Fatalf("warm run %v not marked cached", r.Params)
		}
	}
	firstJSON, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	secondJSON, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if string(firstJSON) != string(secondJSON) {
		t.Fatalf("cached sweep differs from cold sweep:\n%s\n%s", firstJSON, secondJSON)
	}

	// A fresh engine with a wide pool reproduces the same bytes.
	wide, err := NewEngine().RunSpec(context.Background(), spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	wideJSON, err := json.Marshal(wide)
	if err != nil {
		t.Fatal(err)
	}
	if string(wideJSON) != string(firstJSON) {
		t.Fatal("worker count changed sweep output")
	}

	// An overlapping sweep (one shared grid point) is a partial hit.
	overlap, err := ParseSpec([]byte(`{
		"scenario": "covert-pnm",
		"config": {"enable_prefetchers": false},
		"grid": {"llc_bytes": [4194304, 2097152], "mem.defense": ["none"]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSpec(context.Background(), overlap, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 1 || res.Misses != 1 {
		t.Fatalf("overlapping sweep hits=%d misses=%d, want 1/1", res.Hits, res.Misses)
	}

	if _, err := eng.RunSpec(context.Background(), spec, -2); err == nil {
		t.Fatal("negative worker count accepted")
	}
}

// TestEngineDedupesWithinSweep checks that two grid points resolving to
// the same concrete run are simulated once and answer identical reports.
// Accounting is per run, so Hits+Misses is always the run count; at one
// worker the second point is a hit, while at two workers both points may
// miss concurrently and coalesce onto one simulation, so only the sum is
// pinned there.
func TestEngineDedupesWithinSweep(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"scenario": "covert-pnm", "grid": {"noise.events_per_mcycle": [3.5, 0.35e1]}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		eng := NewEngine()
		res, err := eng.RunSpec(context.Background(), spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Runs) != 2 {
			t.Fatalf("workers=%d: runs = %d, want 2", workers, len(res.Runs))
		}
		if res.Runs[0].Key != res.Runs[1].Key {
			t.Fatal("equivalent grid points got different keys")
		}
		if res.Hits+res.Misses != 2 {
			t.Fatalf("workers=%d: hits=%d misses=%d, want a sum of 2", workers, res.Hits, res.Misses)
		}
		if workers == 1 && (res.Hits != 1 || res.Misses != 1) {
			t.Fatalf("workers=1: hits=%d misses=%d, want 1/1", res.Hits, res.Misses)
		}
		if c := eng.Cache().Stats().Computes; c != 1 {
			t.Fatalf("workers=%d: %d simulations, want 1", workers, c)
		}
		if string(res.Runs[0].Report) != string(res.Runs[1].Report) {
			t.Fatal("deduped runs returned different reports")
		}
	}
}

// TestScenarioRegistry sanity-checks the registry surface the server lists.
func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) != len(ScenarioList()) {
		t.Fatal("names/list length mismatch")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate scenario %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"covert-pnm", "covert-dma", "rowbuffer", "fig9", "framing"} {
		if !seen[want] {
			t.Fatalf("registry missing %q (have %v)", want, names)
		}
	}
}

// TestCacheEviction checks the sharded FIFO size bound: the cache never
// exceeds maxEntries in total, each shard evicts oldest-first, and the
// eviction counter accounts for every displaced entry.
func TestCacheEviction(t *testing.T) {
	c := NewCache()
	blob := json.RawMessage(`{}`)
	// Overfill every shard: 2x the global bound guarantees each of the 16
	// shards sees more inserts than its per-shard cap.
	const inserts = 2 * maxEntries
	for i := 0; i < inserts; i++ {
		c.Put(context.Background(), "key-"+strconv.Itoa(i), blob)
	}
	if c.Len() > maxEntries {
		t.Fatalf("cache grew to %d entries, bound is %d", c.Len(), maxEntries)
	}
	if _, ok := c.Get(context.Background(), "key-0"); ok {
		t.Fatal("oldest entry survived a full overfill of its shard")
	}
	if _, ok := c.Get(context.Background(), "key-"+strconv.Itoa(inserts-1)); !ok {
		t.Fatal("newest entry missing")
	}
	st := c.Stats()
	if st.Stores != inserts || st.Evictions != inserts-st.Entries {
		t.Fatalf("stores=%d evictions=%d entries=%d, want every insert stored and evictions to account for the rest",
			st.Stores, st.Evictions, st.Entries)
	}
	// A shard at capacity replaces its own oldest entry, never a
	// neighbor's: re-adding an evicted key must land and stay retrievable.
	c.Put(context.Background(), "key-0", blob)
	if _, ok := c.Get(context.Background(), "key-0"); !ok {
		t.Fatal("re-added key missing")
	}
}

// TestCacheEvictionChurn is the regression test for the FIFO order
// bookkeeping: under sustained eviction the ring buffer must hold the
// size bound, keep its backing storage fixed (the old order[1:] slice
// head pinned every evicted key string and re-allocated under append),
// and run allocation-free at steady state.
func TestCacheEvictionChurn(t *testing.T) {
	c := NewCache()
	blob := json.RawMessage(`{}`)
	keys := make([]string, 3*maxEntries)
	for i := range keys {
		keys[i] = "churn-" + strconv.Itoa(i)
	}
	for i, k := range keys {
		c.Put(context.Background(), k, blob)
		if i%1024 == 0 {
			if n := c.Len(); n > maxEntries {
				t.Fatalf("cache grew to %d entries mid-churn, bound is %d", n, maxEntries)
			}
		}
	}
	if n := c.Len(); n > maxEntries {
		t.Fatalf("cache holds %d entries after churn, bound is %d", n, maxEntries)
	}

	// The ring's backing array never grows or shifts, and every slot not
	// currently occupied has released its key string.
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if len(sh.order) != shardCap {
			t.Fatalf("shard %d order len %d, want fixed %d", i, len(sh.order), shardCap)
		}
		live := 0
		for _, k := range sh.order {
			if k != "" {
				live++
			}
		}
		if live != sh.n || sh.n != len(sh.entries) {
			t.Fatalf("shard %d: %d live slots, n=%d, %d entries", i, live, sh.n, len(sh.entries))
		}
		sh.mu.Unlock()
	}

	// Steady state: every shard is full, so each Put of an already
	// allocated key evicts one entry and inserts another without growing
	// anything — zero allocations per operation.
	next := 0
	avg := testing.AllocsPerRun(2000, func() {
		c.Put(context.Background(), keys[next%len(keys)], blob)
		next++
	})
	if avg > 0.1 {
		t.Fatalf("steady-state eviction allocates %.2f objects/op, want 0", avg)
	}
}
