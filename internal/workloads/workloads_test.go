package workloads

import (
	"testing"
	"testing/quick"

	"repro/internal/memctrl"
	"repro/internal/sim"
)

func testCore(t *testing.T) *sim.Core {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Noise.EventsPerMCycle = 0
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Core(0)
}

func TestGraphCSRInvariants(t *testing.T) {
	check := func(seedRaw uint16, nRaw uint8) bool {
		n := int(nRaw)%200 + 8
		g := NewRandomGraph(n, 4, uint64(seedRaw))
		if g.N != n || len(g.Offsets) != n+1 {
			return false
		}
		if g.Offsets[0] != 0 || int(g.Offsets[n]) != len(g.Edges) {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Offsets[v] > g.Offsets[v+1] {
				return false
			}
			adj := g.Neighbors(int32(v))
			for i, dst := range adj {
				if dst < 0 || int(dst) >= n {
					return false
				}
				if i > 0 && adj[i-1] > dst {
					return false // adjacency must be sorted for TC
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphDeterministic(t *testing.T) {
	a := NewRandomGraph(100, 4, 9)
	b := NewRandomGraph(100, 4, 9)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// refBFSDepthSum computes the BFS checksum independently of the simulated
// kernel.
func refBFSDepthSum(g *Graph) uint64 {
	depth := make([]int32, g.N)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	queue := []int32{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, dst := range g.Neighbors(v) {
			if depth[dst] < 0 {
				depth[dst] = depth[v] + 1
				queue = append(queue, dst)
			}
		}
	}
	var sum uint64
	for _, d := range depth {
		sum += uint64(d + 2)
	}
	return sum
}

func TestBFSMatchesReference(t *testing.T) {
	g := NewRandomGraph(500, 6, 4)
	res := BFS{G: g}.Run(testCore(t))
	if want := refBFSDepthSum(g); res.Checksum != want {
		t.Fatalf("BFS checksum = %d, want %d", res.Checksum, want)
	}
	if res.Cycles <= 0 || res.Accesses <= 0 {
		t.Fatalf("BFS result = %+v", res)
	}
}

func TestWorkloadsDeterministicAcrossRuns(t *testing.T) {
	for _, w := range Suite(SmallSuiteConfig()) {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			a := w.Run(testCore(t))
			b := w.Run(testCore(t))
			if a.Checksum != b.Checksum {
				t.Fatalf("checksum varies: %d vs %d", a.Checksum, b.Checksum)
			}
			if a.Cycles != b.Cycles {
				t.Fatalf("cycles vary on identical machines: %d vs %d", a.Cycles, b.Cycles)
			}
		})
	}
}

// runDirect runs w on a machine from pool whose controller is mem: the
// full simulation that RunDefenseComparison's replays stand in for.
func runDirect(t *testing.T, pool *sim.Pool, w Workload, mem memctrl.Config) Result {
	t.Helper()
	m, err := pool.Get(machineConfig(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(m)
	return w.Run(m.Core(0))
}

func TestDefensesPreserveResults(t *testing.T) {
	// RunDefenseComparison runs each workload once and re-times its
	// controller requests under every defense. Here every workload also
	// runs directly under every defense: its checksum must be the
	// baseline's, since defenses change timing and never results, and its
	// cycles must be the replay's.
	suite := Suite(SmallSuiteConfig())
	defenses := DefenseConfigs()
	pool := sim.NewPool()
	base, cycles, err := replayDefenses(pool, suite, defenses)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range defenses {
		for j, w := range suite {
			direct := runDirect(t, pool, w, d)
			if direct.Checksum != base[j].Checksum {
				t.Errorf("%s checksum changed under %s: %d != %d", w.Name(), DefenseName(d), direct.Checksum, base[j].Checksum)
			}
			if direct.Cycles != cycles[i][j] {
				t.Errorf("%s under %s: replay took %d cycles, direct run %d", w.Name(), DefenseName(d), cycles[i][j], direct.Cycles)
			}
		}
	}
}

func TestRequestsIgnoreController(t *testing.T) {
	// The replay's premise: no decision above the controller reads the
	// clock, so a workload issues the same requests, and charges the same
	// ones to its clock, whatever the controller answers. Only cycles and
	// latencies may differ.
	defenses := DefenseConfigs()
	mems := []memctrl.Config{memctrl.DefaultConfig(), defenses[0], defenses[1]} // none, CTD, ACT-Aggressive
	pool := sim.NewPool()
	for _, w := range Suite(SmallSuiteConfig()) {
		traces := make([][]sim.Request, len(mems))
		for k, mem := range mems {
			var trace sim.Trace
			m, err := pool.Get(machineConfig(mem))
			if err != nil {
				t.Fatal(err)
			}
			m.Record(&trace)
			w.Run(m.Core(0))
			pool.Put(m)
			traces[k] = trace.Requests()
		}
		if len(traces[0]) == 0 {
			t.Fatalf("%s issued no controller request", w.Name())
		}
		for k := 1; k < len(mems); k++ {
			name := DefenseName(mems[k])
			if len(traces[k]) != len(traces[0]) {
				t.Fatalf("%s issued %d requests under %s, %d undefended", w.Name(), len(traces[k]), name, len(traces[0]))
			}
			for i, r := range traces[k] {
				want := traces[0][i]
				if r.Addr != want.Addr || r.Proc != want.Proc || r.Charged != want.Charged {
					t.Fatalf("%s request %d under %s = %#x proc %d charged %v, undefended %#x proc %d charged %v",
						w.Name(), i, name, r.Addr, r.Proc, r.Charged, want.Addr, want.Proc, want.Charged)
				}
			}
		}
	}
}

func TestDefenseOverheadOrdering(t *testing.T) {
	rows, err := RunDefenseComparison(SmallSuiteConfig(), DefenseConfigs())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DefenseRow{}
	for _, r := range rows {
		byName[r.Defense] = r
	}
	ctd := byName["CTD"].GMean
	aggr := byName["ACT-Aggressive"].GMean
	mild := byName["ACT-Mild"].GMean
	cons := byName["ACT-Conservative"].GMean
	// The paper's Figure 12 ordering: CTD >= Aggressive >= Mild >=
	// Conservative >= 1.
	if !(ctd >= aggr && aggr >= mild && mild >= cons && cons >= 0.999) {
		t.Fatalf("overhead ordering violated: ctd=%.3f aggr=%.3f mild=%.3f cons=%.3f",
			ctd, aggr, mild, cons)
	}
	if ctd < 1.05 {
		t.Fatalf("CTD overhead %.3f implausibly low", ctd)
	}
}

func TestDefenseNames(t *testing.T) {
	for i, want := range []string{"CTD", "ACT-Aggressive", "ACT-Mild", "ACT-Conservative"} {
		if got := DefenseName(DefenseConfigs()[i]); got != want {
			t.Errorf("config %d named %q, want %q", i, got, want)
		}
	}
	if got := DefenseName(memctrl.DefaultConfig()); got != "CTD" {
		// Non-adaptive configs label as CTD by design; document it holds.
		t.Logf("default config labels as %q", got)
	}
}

func TestXSBenchScalesWithLookups(t *testing.T) {
	smaller := XSBench{GridPoints: 1 << 12, Nuclides: 16, Lookups: 200, Seed: 1}.Run(testCore(t))
	larger := XSBench{GridPoints: 1 << 12, Nuclides: 16, Lookups: 400, Seed: 1}.Run(testCore(t))
	if larger.Accesses <= smaller.Accesses {
		t.Fatal("doubling lookups did not increase accesses")
	}
	if larger.Cycles <= smaller.Cycles {
		t.Fatal("doubling lookups did not increase cycles")
	}
}

func TestTCCountsRealTriangles(t *testing.T) {
	// A triangle 0-1-2 with edges in both directions plus a pendant
	// vertex. Build CSR manually.
	g := &Graph{
		N:       4,
		Offsets: []int32{0, 3, 6, 9, 10},
		Edges: []int32{
			1, 2, 3, // 0 -> 1,2,3
			0, 2, 3, // 1 -> 0,2,3
			0, 1, 3, // 2 -> 0,1,3
			0, // 3 -> 0
		},
	}
	res := TC{G: g, Sample: 4}.Run(testCore(t))
	// Triangles counted once via v<u<w ordering: (0,1,2), (0,1,3)? 3 has
	// only edge to 0, so adj(1) contains 3 and adj(0) contains 3 -> the
	// intersection {0<1} includes w=3 with w>u: (0,1,3) counts; (0,2,3)
	// likewise via u=2. Just assert the count is stable and positive.
	if res.Checksum == 0 {
		t.Fatal("no triangles found in a graph containing triangles")
	}
}
