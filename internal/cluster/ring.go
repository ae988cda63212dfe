// Package cluster scales the content-addressed result store across
// peers: a consistent-hash ring places every run key on a small replica
// set of nodes, lookups fall through memory → local store → the key's
// remote replicas → local simulation, and completed runs replicate
// asynchronously to their replica set so no single node owns the cache.
//
// The design leans entirely on the existing key scheme: run results are
// already addressed by the SHA-256 of their canonical spec, so placement
// is a pure function of bytes every node computes identically from the
// static -peers list — no coordinator, no membership protocol, no wire
// changes. A partitioned peer degrades a lookup to a local simulation
// (slower, never wrong, never failed), and the deterministic simulator
// guarantees any two nodes that compute the same key produce the same
// bytes, so replicas can never disagree.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-node virtual point count of every ring
// New builds (NewRing takes the count so tests can vary it). 64 points
// per node keeps the expected load imbalance across a handful of peers
// within a few percent while the whole ring stays small enough to
// rebuild at boot in microseconds.
const DefaultVirtualNodes = 64

// Node is one cluster member: a stable identity (the -node-id flag,
// which the ring hashes for placement) and the HTTP address its peers
// dial. Placement depends only on IDs, so a node can change address —
// new port, new host — without moving a single key.
type Node struct {
	ID   string
	Addr string
}

// ringPoint is one virtual node on the ring: a position in hash space
// owned by nodes[node].
type ringPoint struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring over a static node list.
// Placement is byte-stable: it is derived from SHA-256 over node IDs and
// vnode indices alone — no map iteration, no randomness, no process
// state — so every process that builds a ring from the same node list
// places every key identically, across restarts and across machines.
// Safe for concurrent use after construction.
type Ring struct {
	points []ringPoint
	nodes  []Node
}

// NewRing builds a ring with vnodes virtual points per node (<= 0
// selects DefaultVirtualNodes). Node IDs and addresses must be non-empty
// and unique; the node order given does not affect placement.
func NewRing(nodes []Node, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	// Placement hashes IDs, not list positions, so sorting the nodes here
	// makes the ring independent of -peers argument order too.
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	seenID := make(map[string]bool, len(sorted))
	seenAddr := make(map[string]bool, len(sorted))
	for _, n := range sorted {
		if n.ID == "" || n.Addr == "" {
			return nil, fmt.Errorf("cluster: node %+v needs both an ID and an address", n)
		}
		if seenID[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		if seenAddr[n.Addr] {
			return nil, fmt.Errorf("cluster: duplicate node address %q", n.Addr)
		}
		seenID[n.ID], seenAddr[n.Addr] = true, true
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(sorted)*vnodes),
		nodes:  sorted,
	}
	for i, n := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n.ID, v), node: i})
		}
	}
	// Ties (astronomically unlikely with SHA-256, but placement must be a
	// total order) break toward the lexicographically smaller node ID,
	// which the pre-sort above makes the smaller index.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// pointHash positions one virtual node: the first 8 bytes of
// SHA-256("<id>\n<vnode>"). The separator keeps ("n1", 0) and ("n10",
// ...) from colliding textually; SHA-256 (rather than a seeded fast
// hash) guarantees the placement is identical for every Go version and
// architecture.
func pointHash(id string, vnode int) uint64 {
	h := sha256.New()
	h.Write([]byte(id))
	h.Write([]byte{'\n'})
	h.Write([]byte(strconv.Itoa(vnode)))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0]))
}

// keyHash positions a result key on the ring. Keys are already hex
// SHA-256 digests, but hashing again costs little and keeps placement
// uniform even for the synthetic keys tests and benches use.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the ring's members, sorted by ID.
func (r *Ring) Nodes() []Node { return append([]Node(nil), r.nodes...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node that owns a key: the first virtual point at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) Node {
	return r.nodes[r.points[r.successor(keyHash(key))].node]
}

// Replicas returns the key's replica set: the owner plus the next n-1
// distinct nodes clockwise. n is clamped to the member count, so a
// two-node ring with R=3 returns both nodes and no duplicates. The
// order is significant — lookups try replicas in this order, and the
// first element is always the owner.
func (r *Ring) Replicas(key string, n int) []Node {
	if n <= 0 {
		n = 1
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]Node, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.successor(keyHash(key)); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// successor finds the index of the first point with hash >= h, wrapping
// to 0 past the end of the ring.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
