package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"testing"

	"repro/internal/figures"
	"repro/internal/sim"
	"repro/pkg/api"
)

// reportBytes runs one scenario on one machine source and marshals the
// report exactly as the engine would.
func reportBytes(t testing.TB, scn scenario, pool *sim.Pool, cfg sim.Config) []byte {
	t.Helper()
	rep, err := scn.run(pool, cfg, figures.ScaleQuick)
	if err != nil {
		t.Fatalf("scenario %s: %v", scn.Name, err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestPooledMachineDeterminism is the contract the machine pool stands
// on: Machine.Reset must be provably state-free. For every registered
// scenario, a report produced on a pooled machine — deliberately dirtied
// by other scenarios and other configs first — must be byte-identical to
// one produced on a freshly assembled machine. The config sequence
// exercises both pool routes: B shares A's shape (the reset fast path)
// and C changes the LLC geometry (its own pool shard), so every round
// interleaves reuse across two live shapes.
func TestPooledMachineDeterminism(t *testing.T) {
	cfgA := sim.DefaultConfig()
	cfgB := sim.DefaultConfig()
	cfgB.Costs.FlushOverhead += 100 // same machine shape, different behavior
	cfgC := sim.DefaultConfig()
	cfgC.LLCBytes = 4 << 20 // different LLC geometry: separate pool shard

	pool := sim.NewPool()
	for _, scn := range scenarios() {
		configs := []sim.Config{cfgA, cfgB, cfgC}
		if !scn.ConfigSensitive {
			// Figure replays ignore this pool: their machines come from
			// the figures package's own, whose pooled-versus-fresh check
			// is TestPooledFiguresMatchFresh. One config point pins that
			// this pool cannot perturb them either.
			configs = configs[:1]
		}
		want := make([][]byte, len(configs))
		for i, cfg := range configs {
			want[i] = reportBytes(t, scn, nil, cfg)
		}
		// Interleave configs on one shared pool so every run after the
		// first sees a machine dirtied by a different grid point.
		for round := 0; round < 2; round++ {
			for i := len(configs) - 1; i >= 0; i-- {
				if got := reportBytes(t, scn, pool, configs[i]); string(got) != string(want[i]) {
					t.Fatalf("scenario %s config %d round %d: pooled report diverged from fresh\n got %s\nwant %s",
						scn.Name, i, round, got, want[i])
				}
			}
		}
	}
	st := pool.Stats()
	if st.Hits == 0 {
		t.Fatalf("pool stats %+v: the reset fast path was never exercised", st)
	}
	if st.Drops != 0 {
		// The shape key must cover everything Reset pre-checks: a drop
		// here means a machine was routed to a shard it cannot serve.
		t.Fatalf("pool stats %+v: shape-sharded pool dropped a machine on a valid config", st)
	}
	if st.Misses < 2 {
		t.Fatalf("pool stats %+v: expected a fresh build per distinct shape", st)
	}
}

// TestPooledSweepParallelDeterminism drives a grid through the engine at
// 8 workers — every worker contending for the shared machine pool — and
// requires the sweep body to be byte-identical to a single-worker sweep
// on a fresh engine. Run under -race in `make race`/`make coldpath-smoke`,
// this is the concurrency half of the pool's determinism contract.
func TestPooledSweepParallelDeterminism(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"scenario": "covert-pnm",
		"grid": {
			"llc_bytes": [2097152, 4194304, 8388608, 16777216],
			"costs.flush_overhead": [300, 400]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	body := func(workers int) []byte {
		res, err := NewEngine().RunSpec(context.Background(), spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := body(1)
	for i := 0; i < 3; i++ {
		if got := body(8); string(got) != string(want) {
			t.Fatalf("8-worker pooled sweep diverged from 1-worker sweep:\n got %s\nwant %s", got, want)
		}
	}
}

// TestGridTooLarge pins the overflow-safe run-count guard: a grid whose
// Cartesian product overflows int must fail with ErrGridTooLarge (and a
// 400 grid_too_large through statusFor) without attempting the
// allocation.
func TestGridTooLarge(t *testing.T) {
	// 7 axes x 1000 values = 10^21 runs: past int64, let alone the limits.
	grid := map[string][]json.RawMessage{}
	for a := 0; a < 7; a++ {
		vals := make([]json.RawMessage, 1000)
		for j := range vals {
			vals[j] = json.RawMessage(strconv.Itoa(j))
		}
		grid[fmt.Sprintf("axis%d", a)] = vals
	}
	spec := Spec{Scenario: "covert-pnm", Grid: grid}

	_, err := spec.Expansion(MaxJobRuns)
	if !errorsIsGridTooLarge(err) {
		t.Fatalf("Expansion on an overflowing grid = %v, want ErrGridTooLarge", err)
	}
	if status, code := statusFor(err); status != http.StatusBadRequest || code != api.CodeGridTooLarge {
		t.Fatalf("statusFor(ErrGridTooLarge) = %d %s, want 400 %s", status, code, api.CodeGridTooLarge)
	}

	// Just past the synchronous bound (not overflowing): same error.
	over := Spec{Scenario: "covert-pnm", Grid: map[string][]json.RawMessage{
		"noise.seed":           manyInts(70),
		"costs.flush_overhead": manyInts(70), // 4900 > MaxRuns
	}}
	if _, err := over.Expansion(MaxRuns); !errorsIsGridTooLarge(err) {
		t.Fatalf("Expansion(MaxRuns) just past MaxRuns = %v, want ErrGridTooLarge", err)
	}
	if _, err := over.Expansion(MaxJobRuns); err != nil {
		t.Fatalf("the job bound must still admit a %d-run grid: %v", 70*70, err)
	}
}

// TestServerGridTooLarge pins the wire form: POST /v1/run with an
// oversized grid answers 400 with the stable grid_too_large code.
func TestServerGridTooLarge(t *testing.T) {
	body := fmt.Sprintf(`{"scenario": "covert-pnm", "grid": {"noise.seed": %s, "costs.flush_overhead": %s}}`,
		intsJSON(70), intsJSON(70))
	rec := doRequest(t, NewServer(NewEngine()).Handler(), http.MethodPost, "/v1/run", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /v1/run oversized grid = %d: %s", rec.Code, rec.Body)
	}
	var env api.Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Err == nil {
		t.Fatalf("error body %q (%v)", rec.Body, err)
	}
	if env.Err.Code != api.CodeGridTooLarge {
		t.Fatalf("error code = %s, want %s", env.Err.Code, api.CodeGridTooLarge)
	}
}

func errorsIsGridTooLarge(err error) bool { return errors.Is(err, ErrGridTooLarge) }

func manyInts(n int) []json.RawMessage {
	vals := make([]json.RawMessage, n)
	for i := range vals {
		vals[i] = json.RawMessage(strconv.Itoa(i))
	}
	return vals
}

func intsJSON(n int) string {
	blob, _ := json.Marshal(manyInts(n))
	return string(blob)
}

// syntheticScenario registers a microsecond-cost config-sensitive
// scenario under the given name for the duration of the test, so
// 10^5-run sweeps exercise the streaming machinery without paying 10^5
// simulations. The returned func restores the registry.
func syntheticScenario(name string) func() {
	testScenarios = append(testScenarios, scenario{
		Name:            name,
		Description:     "synthetic test scenario (constant-time run)",
		ConfigSensitive: true,
		run: func(_ *sim.Pool, cfg sim.Config, _ figures.Scale) (figures.Report, error) {
			return figures.Report{
				ID:    name,
				Title: "synthetic",
				Rows: []figures.Row{{
					Label: "seed", Paper: "-", Measured: fmt.Sprint(cfg.Noise.Seed),
				}},
			}, nil
		},
	})
	return func() { testScenarios = testScenarios[:len(testScenarios)-1] }
}

// streamMemoryBudget bounds the peak live heap while a 10^5-run sweep
// flows through the streaming path. Materializing every Run (each
// embedding a full sim.Config plus a params map — well over 1 KiB apiece)
// and every RunResult would hold hundreds of MiB at 10^5 runs; the
// streaming path's live set is the worker count plus the bounded result
// cache — measured ~6 MiB peak at 10^5 runs, far under this bound.
const streamMemoryBudget = 64 << 20

// liveHeapBytes reads the heap marked live by the most recent GC cycle.
// Unlike MemStats.HeapAlloc it excludes garbage not yet swept — including
// whatever earlier tests in the process left behind — so the bound
// measures the sweep's live set, not the collector's pacing.
func liveHeapBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestStreamingSweepMemoryBound drives a 100,000-run grid through
// executeStream and asserts the peak live heap stays bounded: the run
// list is never materialized and per-run results are dropped as they
// stream. Skipped under -short; `make coldpath-smoke` runs a trimmed grid
// via TestStreamingSweepMemoryBoundTrimmed either way.
func TestStreamingSweepMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-run streaming sweep skipped in -short mode")
	}
	streamMemoryBound(t, 1000, 100)
}

// TestStreamingSweepMemoryBoundTrimmed is the smoke-sized variant: same
// assertions, 10^3 runs.
func TestStreamingSweepMemoryBoundTrimmed(t *testing.T) {
	streamMemoryBound(t, 100, 10)
}

func streamMemoryBound(t *testing.T, seeds, overheads int) {
	t.Helper()
	restore := syntheticScenario("synthetic-coldpath")
	defer restore()

	grid := map[string][]json.RawMessage{
		"noise.seed":           manyInts(seeds),
		"costs.flush_overhead": manyInts(overheads),
	}
	spec := Spec{Scenario: "synthetic-coldpath", Grid: grid}
	x, err := spec.Expansion(MaxJobRuns)
	if err != nil {
		t.Fatal(err)
	}
	total := seeds * overheads
	if x.Total() != total {
		t.Fatalf("Total() = %d, want %d", x.Total(), total)
	}

	var completed int64
	// Two cycles: the first moves sync.Pool contents (pooled machines
	// earlier tests left behind) to the victim cache, the second frees
	// them, so the baseline holds none of another test's state.
	runtime.GC()
	runtime.GC()
	peak := liveHeapBytes()

	e := NewEngine()
	var mu sync.Mutex
	res, err := e.executeStream(context.Background(), x, 0, func(i int, rr RunResult) {
		mu.Lock()
		completed++
		if completed%512 == 0 {
			peak = max(peak, liveHeapBytes())
		}
		mu.Unlock()
		if len(rr.Report) == 0 {
			t.Errorf("run %d streamed with an empty report", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != nil {
		t.Fatalf("streaming sweep pinned %d results; Runs must stay nil", len(res.Runs))
	}
	if got := res.Hits + res.Misses; got != total {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d", res.Hits, res.Misses, got, total)
	}
	if completed != int64(total) {
		t.Fatalf("onRun fired %d times, want %d", completed, total)
	}
	if res.SpecKey == "" {
		t.Fatal("streaming sweep produced no spec key")
	}
	t.Logf("streaming %d-run sweep: peak live heap %.1f MiB (budget %d MiB)",
		total, float64(peak)/(1<<20), streamMemoryBudget>>20)
	if peak > streamMemoryBudget {
		t.Fatalf("peak live heap %d exceeds the %d-byte streaming budget", peak, streamMemoryBudget)
	}
}
