package workloads

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// referenceGraph is the append-per-vertex build NewRandomGraph replaced:
// the same RNG draws, each vertex's list grown by append and sorted with
// sort.Slice. It is kept here as the reference the flat build must match.
func referenceGraph(n, degree int, seed uint64) *Graph {
	rng := stats.NewRNG(seed)
	adj := make([][]int32, n)
	m := n * degree
	for i := 0; i < m; i++ {
		src := rng.Intn(n)
		var dst int
		if rng.Bool(0.25) {
			u := rng.Float64()
			dst = int(u * u * float64(n))
		} else {
			dst = rng.Intn(n)
		}
		if dst == src {
			dst = (dst + 1) % n
		}
		adj[src] = append(adj[src], int32(dst))
	}
	g := &Graph{N: n, Offsets: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		g.Offsets[v+1] = g.Offsets[v] + int32(len(adj[v]))
	}
	g.Edges = make([]int32, 0, m)
	for v := 0; v < n; v++ {
		g.Edges = append(g.Edges, adj[v]...)
	}
	return g
}

// TestRandomGraphMatchesReference holds NewRandomGraph's CSR arrays to
// the reference build over small, odd and quick-suite sizes, and
// requires its allocation count not to grow with the vertex count.
func TestRandomGraphMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 100, 4096} {
		for _, degree := range []int{0, 1, 8} {
			for _, seed := range []uint64{1, 11, 0xdecafbad} {
				got, want := NewRandomGraph(n, degree, seed), referenceGraph(n, degree, seed)
				if got.N != want.N || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Edges, want.Edges) {
					t.Fatalf("n=%d degree=%d seed=%d: graph differs from the reference build", n, degree, seed)
				}
			}
		}
	}

	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { NewRandomGraph(n, 8, 11) })
	}
	if a, b := allocs(1<<10), allocs(1<<14); a != b {
		t.Fatalf("NewRandomGraph made %.0f allocations at 2^10 vertices and %.0f at 2^14", a, b)
	}
}
