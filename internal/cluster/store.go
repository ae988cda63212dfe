package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// Cluster sizing. DefaultReplicas is fixed; the other three are defaults
// a Config field may override.
const (
	// DefaultReplicas is the replica set size R (clamped to the cluster
	// size): every key lives on its ring owner plus one successor. R=2
	// survives any single node loss without losing cached work, and the
	// content-addressed store makes a lost second copy merely a
	// re-simulation, so buying more copies costs more than it protects.
	DefaultReplicas = 2
	// DefaultHopTimeout bounds one remote fetch. Peer hops are an
	// optimization over local simulation (~10ms–10s depending on the
	// scenario); past two seconds the hop has lost its reason to exist.
	DefaultHopTimeout = 2 * time.Second
	// DefaultQueueLen bounds the async replication queue. At a few KiB per
	// report, 1024 pending pushes is a few MiB of memory and several
	// seconds of burst absorption; beyond that, dropping (and letting the
	// ring heal by fetch or re-simulation) beats unbounded growth.
	DefaultQueueLen = 1024
	// DefaultReplWorkers is how many goroutines drain the replication
	// queue. Pushes are tiny HTTP PUTs; two workers keep one slow peer
	// from serializing the whole queue behind it.
	DefaultReplWorkers = 2
)

// Counter slots for the store's metrics.Set, exported on /v1/metrics as
// api.ClusterStats.
const (
	cLocalHits = iota
	cRemoteHits
	cRemoteMisses
	cPeerErrors
	cMisses
	cHeals
	cReplEnqueued
	cReplSent
	cReplRetries
	cReplFailed
	cReplDropped
	cCounters
)

var counterNames = []string{
	"local_hits", "remote_hits", "remote_misses", "peer_errors", "misses",
	"heals", "repl_enqueued", "repl_sent", "repl_retries", "repl_failed",
	"repl_dropped",
}

// Config assembles a cluster Store. Self and Nodes are required (Self
// must name one of Nodes); everything else has a default.
type Config struct {
	// Self is this node's ID in Nodes.
	Self string
	// Nodes is the full static membership list, this node included.
	Nodes []Node
	// Local is the node's own durable tier (the pack store), or nil for a
	// memory-only node — replicas it receives then live only
	// in the result cache's memory tier.
	Local exp.ResultStore
	// HopTimeout bounds each remote fetch and each replication push
	// attempt (<= 0 selects DefaultHopTimeout).
	HopTimeout time.Duration
	// QueueLen bounds the replication queue (<= 0 selects DefaultQueueLen).
	QueueLen int
	// Workers is the replication worker count (<= 0 selects
	// DefaultReplWorkers).
	Workers int
	// Dial builds peer transports (nil selects the pkg/client dialer).
	// Tests inject in-process peers here.
	Dial DialFunc
}

// Store is the cluster-aware exp.ResultStore: reads fall through this
// node's local tier to the key's remote replica set and writes replicate
// asynchronously to that set. It degrades, never fails — any remote
// problem (partition, dead peer, timeout) turns a lookup into a miss,
// and a miss just means the engine simulates locally. Safe for
// concurrent use.
type Store struct {
	self     Node
	ring     *Ring
	local    exp.ResultStore
	peers    map[string]Peer // node ID → transport, self excluded
	replicas int
	hop      time.Duration
	met      *metrics.Set
	repl     *replicator
}

// New builds the cluster store and starts its replication workers. Call
// Close before tearing down the local store underneath it.
func New(cfg Config) (*Store, error) {
	ring, err := NewRing(cfg.Nodes, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	var self Node
	found := false
	for _, n := range ring.Nodes() {
		if n.ID == cfg.Self {
			self, found = n, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the node list", cfg.Self)
	}
	dial := cfg.Dial
	if dial == nil {
		dial = defaultDial
	}
	peers := make(map[string]Peer, ring.Len()-1)
	for _, n := range ring.Nodes() {
		if n.ID == self.ID {
			continue
		}
		p, err := dial(n)
		if err != nil {
			return nil, fmt.Errorf("cluster: dialing peer %s (%s): %w", n.ID, n.Addr, err)
		}
		peers[n.ID] = p
	}
	s := &Store{
		self:     self,
		ring:     ring,
		local:    cfg.Local,
		peers:    peers,
		replicas: min(DefaultReplicas, ring.Len()),
		hop:      cfg.HopTimeout,
		met:      metrics.NewSet(counterNames...),
	}
	if s.hop <= 0 {
		s.hop = DefaultHopTimeout
	}
	s.repl = newReplicator(s, cfg.QueueLen, cfg.Workers)
	return s, nil
}

// Ring exposes the store's placement ring (cmd/impact-server logs the
// membership it resolved; tests assert placement).
func (s *Store) Ring() *Ring { return s.ring }

// Self returns this node's identity.
func (s *Store) Self() Node { return s.self }

// Local returns the wrapped local tier (nil for a memory-only node).
// The metrics handler unwraps through this so the pack/store sections
// keep reporting on the node's own backend.
func (s *Store) Local() exp.ResultStore { return s.local }

// Get implements exp.ResultStore: local tier first, then the key's
// remote replicas in ring order, then a miss — in which case the caller
// simulates the run itself. A fetched blob is healed into the local tier
// when this node is in the key's replica set, so the ring repairs itself
// read by read after a partition. Remote failures are counted, never
// returned: a partitioned peer can slow a request (one hop timeout per
// dead replica), but can never fail it.
func (s *Store) Get(ctx context.Context, key string) (json.RawMessage, bool) {
	if blob, ok := s.LocalGet(ctx, key); ok {
		s.met.Add(cLocalHits, 1)
		return blob, true
	}
	selfHolds := false
	for _, n := range s.ring.Replicas(key, s.replicas) {
		if n.ID == s.self.ID {
			selfHolds = true
			continue
		}
		blob, ok, err := s.fetch(ctx, n, key)
		if err != nil {
			s.met.Add(cPeerErrors, 1)
			continue
		}
		if !ok {
			s.met.Add(cRemoteMisses, 1)
			continue
		}
		s.met.Add(cRemoteHits, 1)
		if selfHolds && s.local != nil {
			s.local.Put(ctx, key, blob)
			s.met.Add(cHeals, 1)
		}
		return blob, true
	}
	s.met.Add(cMisses, 1)
	return nil, false
}

// fetch is one bounded peer hop.
func (s *Store) fetch(ctx context.Context, n Node, key string) (json.RawMessage, bool, error) {
	p, ok := s.peers[n.ID]
	if !ok {
		// Unreachable with a well-formed ring; fail as a peer error rather
		// than panicking in the serving path.
		return nil, false, fmt.Errorf("cluster: no transport for node %s", n.ID)
	}
	hopCtx, cancel := context.WithTimeout(ctx, s.hop)
	defer cancel()
	return p.FetchResult(hopCtx, key)
}

// Put implements exp.ResultStore: the blob lands in the local tier
// synchronously (the durability the caller already had without a
// cluster), then fans out asynchronously to the key's other replicas.
// The enqueue never blocks the simulation path: a full queue drops the
// push and counts it, and the ring heals later by fetch or
// re-simulation.
func (s *Store) Put(ctx context.Context, key string, blob json.RawMessage) {
	s.LocalPut(ctx, key, blob)
	for _, n := range s.ring.Replicas(key, s.replicas) {
		if n.ID == s.self.ID {
			continue
		}
		s.repl.enqueue(n.ID, key, blob)
	}
}

// LocalGet reads strictly from the node's own tier — no remote hops.
// This is the path behind the internal peer-fetch endpoint (a peer
// answering a peer must not recurse to a third node) and the first rung
// of Get's fallthrough.
func (s *Store) LocalGet(ctx context.Context, key string) (json.RawMessage, bool) {
	if s.local == nil {
		return nil, false
	}
	return s.local.Get(ctx, key)
}

// LocalPut writes strictly to the node's own tier — no replication.
// This is the path behind the internal peer replication endpoint: the
// sender already placed the copy by ring position, so the receiver
// fanning it out again would echo around the replica set forever.
func (s *Store) LocalPut(ctx context.Context, key string, blob json.RawMessage) {
	if s.local == nil {
		return
	}
	s.local.Put(ctx, key, blob)
}

// ClusterStats snapshots the store's counters for /v1/metrics.
func (s *Store) ClusterStats() api.ClusterStats {
	return api.ClusterStats{
		NodeID:          s.self.ID,
		Peers:           len(s.peers),
		LocalHits:       s.met.Value(cLocalHits),
		RemoteHits:      s.met.Value(cRemoteHits),
		RemoteMisses:    s.met.Value(cRemoteMisses),
		PeerErrors:      s.met.Value(cPeerErrors),
		Misses:          s.met.Value(cMisses),
		Heals:           s.met.Value(cHeals),
		ReplEnqueued:    s.met.Value(cReplEnqueued),
		ReplSent:        s.met.Value(cReplSent),
		ReplRetries:     s.met.Value(cReplRetries),
		ReplFailed:      s.met.Value(cReplFailed),
		ReplDroppedFull: s.met.Value(cReplDropped),
		ReplQueue:       s.repl.queued(),
	}
}

// Close stops the replication workers. Pending and in-flight pushes are
// abandoned, which is the async-replication contract: replicas are an
// optimization, and anything unreplicated heals later by peer fetch or
// re-simulation. Close before closing the local store underneath, so no
// replica write races a closed pack file.
func (s *Store) Close() {
	s.repl.close()
}
