// Package workloads implements the benchmark programs of the paper's
// defense evaluation (Figure 12): four GraphBIG kernels — Betweenness
// Centrality, Breadth-First Search, Connected Components, Triangle
// Counting — and an XSBench-style Monte Carlo cross-section lookup kernel.
// Each workload runs its real algorithm over synthetic data, issuing every
// data-structure access through the simulated cache hierarchy and memory
// controller, so defense mechanisms slow them down exactly as they would on
// the modeled machine.
package workloads

import (
	"slices"

	"repro/internal/stats"
)

// Graph is a directed graph in compressed sparse row (CSR) form, the layout
// GraphBIG kernels traverse.
type Graph struct {
	N       int
	Offsets []int32 // len N+1
	Edges   []int32 // len M
}

// NewRandomGraph builds a graph with n vertices and approximately n*degree
// edges using a skewed (preferential-ish) endpoint distribution so some
// vertices are hubs, as in real graph workloads. Each vertex's neighbours
// are sorted. The build draws every edge, counts each source's
// out-degree, turns the counts into offsets and fills the edge array
// through a per-vertex cursor, so it makes the same few allocations at
// every graph size.
func NewRandomGraph(n, degree int, seed uint64) *Graph {
	rng := stats.NewRNG(seed)
	m := n * degree
	g := &Graph{N: n, Offsets: make([]int32, n+1), Edges: make([]int32, m)}
	drawn := make([][2]int32, m) // (src, dst) in draw order
	for i := range drawn {
		src := rng.Intn(n)
		var dst int
		if rng.Bool(0.25) {
			// Skew: square the uniform draw toward low vertex ids,
			// creating hubs.
			u := rng.Float64()
			dst = int(u * u * float64(n))
		} else {
			dst = rng.Intn(n)
		}
		if dst == src {
			dst = (dst + 1) % n
		}
		drawn[i] = [2]int32{int32(src), int32(dst)}
		g.Offsets[src+1]++
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	next := make([]int32, n)
	copy(next, g.Offsets)
	for _, e := range drawn {
		g.Edges[next[e[0]]] = e[1]
		next[e[0]]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(g.Edges[g.Offsets[v]:g.Offsets[v+1]])
	}
	return g
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Neighbors returns the adjacency list of v.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}
