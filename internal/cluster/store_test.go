package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Golden keys from TestRingPlacementGolden: on the threeNodes() ring
// with 64 vnodes, their R=2 replica sets are pinned and byte-stable.
const (
	keyAlphaBeta = "9b0fcb6e86e9df8eb723bd4b8c8e2f0c7a3d5e1f2a4b6c8d9e0f1a2b3c4d5e6f" // {alpha, beta}
	keyBetaGamma = "0000000000000000000000000000000000000000000000000000000000000000" // {beta, gamma}
	keyGammaBeta = "4a5e1e4baab89f3a32518a88c31bc87f618f76673e2cc77ab2127b7afdeda33b" // {gamma, beta}
)

// mapStore is a minimal local exp.ResultStore for tests.
type mapStore struct {
	mu sync.Mutex
	m  map[string]json.RawMessage
}

func newMapStore() *mapStore { return &mapStore{m: map[string]json.RawMessage{}} }

func (s *mapStore) Get(_ context.Context, key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.m[key]
	return blob, ok
}

func (s *mapStore) Put(_ context.Context, key string, blob json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; !ok {
		s.m[key] = append(json.RawMessage(nil), blob...)
	}
}

// fakePeer is an in-process Peer with fault injection: down peers error
// every call, storeFailures makes the next N StoreResult calls fail
// (testing replication retries), and blockStores holds StoreResult until
// released (testing queue overflow).
type fakePeer struct {
	mu            sync.Mutex
	data          map[string]json.RawMessage
	down          bool
	storeFailures int
	blockStores   chan struct{}
	fetchCalls    int
	storeCalls    int
}

func newFakePeer() *fakePeer { return &fakePeer{data: map[string]json.RawMessage{}} }

func (p *fakePeer) FetchResult(_ context.Context, key string) (json.RawMessage, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fetchCalls++
	if p.down {
		return nil, false, fmt.Errorf("fakepeer: down")
	}
	blob, ok := p.data[key]
	return blob, ok, nil
}

func (p *fakePeer) StoreResult(ctx context.Context, key string, blob json.RawMessage) error {
	p.mu.Lock()
	block := p.blockStores
	p.mu.Unlock()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.storeCalls++
	if p.down {
		return fmt.Errorf("fakepeer: down")
	}
	if p.storeFailures > 0 {
		p.storeFailures--
		return fmt.Errorf("fakepeer: transient store failure")
	}
	p.data[key] = append(json.RawMessage(nil), blob...)
	return nil
}

func (p *fakePeer) get(key string) (json.RawMessage, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	blob, ok := p.data[key]
	return blob, ok
}

// newTestStore builds an alpha-node store over fake beta/gamma peers.
func newTestStore(t *testing.T, cfg Config) (*Store, *fakePeer, *fakePeer) {
	t.Helper()
	beta, gamma := newFakePeer(), newFakePeer()
	cfg.Self = "alpha"
	cfg.Nodes = threeNodes()
	cfg.Dial = func(n Node) (Peer, error) {
		switch n.ID {
		case "beta":
			return beta, nil
		case "gamma":
			return gamma, nil
		}
		return nil, fmt.Errorf("unexpected dial of %s", n.ID)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, beta, gamma
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStoreGetLocalFirst: a locally-held key never touches the network.
func TestStoreGetLocalFirst(t *testing.T) {
	local := newMapStore()
	s, beta, gamma := newTestStore(t, Config{Local: local})
	blob := json.RawMessage(`{"v":1}`)
	local.Put(context.Background(), keyAlphaBeta, blob)

	got, ok := s.Get(context.Background(), keyAlphaBeta)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q, %v; want local blob", got, ok)
	}
	if beta.fetchCalls != 0 || gamma.fetchCalls != 0 {
		t.Fatalf("local hit touched the network: beta %d, gamma %d fetches", beta.fetchCalls, gamma.fetchCalls)
	}
	if st := s.ClusterStats(); st.LocalHits != 1 || st.RemoteHits != 0 {
		t.Fatalf("stats after local hit: %+v", st)
	}
}

// TestStoreGetRemoteHitHeals: a local miss fetches from the key's remote
// replica, and — because this node is in the replica set — heals the
// blob into the local tier so the next read is local.
func TestStoreGetRemoteHitHeals(t *testing.T) {
	local := newMapStore()
	s, beta, _ := newTestStore(t, Config{Local: local})
	blob := json.RawMessage(`{"v":2}`)
	beta.data[keyAlphaBeta] = blob // replica set {alpha, beta}; alpha lost its copy

	got, ok := s.Get(context.Background(), keyAlphaBeta)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q, %v; want beta's blob", got, ok)
	}
	if healed, ok := local.Get(context.Background(), keyAlphaBeta); !ok || !bytes.Equal(healed, blob) {
		t.Fatalf("blob not healed into local tier: %q, %v", healed, ok)
	}
	st := s.ClusterStats()
	if st.RemoteHits != 1 || st.Heals != 1 {
		t.Fatalf("stats after healing fetch: %+v", st)
	}

	// Second read is purely local.
	before := beta.fetchCalls
	if _, ok := s.Get(context.Background(), keyAlphaBeta); !ok {
		t.Fatal("healed key missing")
	}
	if beta.fetchCalls != before {
		t.Fatal("healed key still fetched remotely")
	}
}

// TestStoreGetNoHealOffReplica: fetching a key this node does NOT
// replicate must not pin it into the local durable tier — placement
// stays where the ring says it lives.
func TestStoreGetNoHealOffReplica(t *testing.T) {
	local := newMapStore()
	s, beta, _ := newTestStore(t, Config{Local: local})
	blob := json.RawMessage(`{"v":3}`)
	beta.data[keyBetaGamma] = blob // replica set {beta, gamma}; alpha is off-replica

	got, ok := s.Get(context.Background(), keyBetaGamma)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q, %v; want beta's blob", got, ok)
	}
	if _, ok := local.Get(context.Background(), keyBetaGamma); ok {
		t.Fatal("off-replica key healed into local tier")
	}
	if st := s.ClusterStats(); st.Heals != 0 {
		t.Fatalf("off-replica fetch healed: %+v", st)
	}
}

// TestStorePartitionDegradesToMiss: with every peer down, a remote
// lookup degrades to a miss — the caller simulates locally — and the
// request sees no error of any kind.
func TestStorePartitionDegradesToMiss(t *testing.T) {
	s, beta, gamma := newTestStore(t, Config{Local: newMapStore()})
	beta.down, gamma.down = true, true

	if _, ok := s.Get(context.Background(), keyBetaGamma); ok {
		t.Fatal("partitioned lookup reported a hit")
	}
	st := s.ClusterStats()
	if st.PeerErrors != 2 || st.Misses != 1 {
		t.Fatalf("stats after partitioned lookup: %+v", st)
	}
}

// TestStorePutReplicates: Put lands locally at once and fans out
// asynchronously to exactly the key's other replicas.
func TestStorePutReplicates(t *testing.T) {
	local := newMapStore()
	s, beta, gamma := newTestStore(t, Config{Local: local})
	blob := json.RawMessage(`{"v":4}`)

	s.Put(context.Background(), keyAlphaBeta, blob) // replicas {alpha, beta}
	if _, ok := local.Get(context.Background(), keyAlphaBeta); !ok {
		t.Fatal("Put did not land in the local tier synchronously")
	}
	// The peer holds the blob before the replicator counts the send, so
	// wait for both.
	waitFor(t, "replication to beta", func() bool {
		got, ok := beta.get(keyAlphaBeta)
		return ok && bytes.Equal(got, blob) && s.ClusterStats().ReplSent == 1
	})
	if _, ok := gamma.get(keyAlphaBeta); ok {
		t.Fatal("blob replicated to gamma, which is not in the replica set")
	}
	st := s.ClusterStats()
	if st.ReplEnqueued != 1 || st.ReplSent != 1 {
		t.Fatalf("stats after replication: %+v", st)
	}
}

// TestStorePutOffReplica: a node computing a key it does not replicate
// pushes copies to both of the key's true replicas.
func TestStorePutOffReplica(t *testing.T) {
	s, beta, gamma := newTestStore(t, Config{Local: newMapStore()})
	blob := json.RawMessage(`{"v":5}`)

	s.Put(context.Background(), keyBetaGamma, blob) // replicas {beta, gamma}
	waitFor(t, "replication to both replicas", func() bool {
		_, okB := beta.get(keyBetaGamma)
		_, okG := gamma.get(keyBetaGamma)
		return okB && okG
	})
}

// TestStoreReplicationRetries: a transiently failing peer is retried
// with backoff until the push lands.
func TestStoreReplicationRetries(t *testing.T) {
	s, beta, _ := newTestStore(t, Config{Local: newMapStore()})
	beta.mu.Lock()
	beta.storeFailures = 2
	beta.mu.Unlock()

	s.Put(context.Background(), keyAlphaBeta, json.RawMessage(`{"v":6}`))
	waitFor(t, "retried replication to beta", func() bool {
		_, ok := beta.get(keyAlphaBeta)
		return ok && s.ClusterStats().ReplSent == 1
	})
	if st := s.ClusterStats(); st.ReplRetries < 2 || st.ReplSent != 1 {
		t.Fatalf("stats after retried replication: %+v", st)
	}
}

// TestStoreReplicationDropsWhenFull: the queue is bounded and the
// enqueue never blocks — overflow is dropped and counted, not buffered
// without limit and not stalling the simulation path.
func TestStoreReplicationDropsWhenFull(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, beta, _ := newTestStore(t, Config{Local: newMapStore(), QueueLen: 1, Workers: 1})
	beta.mu.Lock()
	beta.blockStores = block
	beta.mu.Unlock()

	// First Put occupies the worker (blocked in StoreResult), second fills
	// the one-slot queue; give the worker a moment to claim the first so
	// the counts below are deterministic.
	s.Put(context.Background(), keyAlphaBeta, json.RawMessage(`{"n":1}`))
	waitFor(t, "worker to claim the first push", func() bool {
		beta.mu.Lock()
		defer beta.mu.Unlock()
		return beta.fetchCalls == 0 && len(s.repl.ch) == 0 && s.repl.queued() == 1
	})
	s.Put(context.Background(), keyGammaBeta, json.RawMessage(`{"n":2}`))
	s.Put(context.Background(), keyBetaGamma, json.RawMessage(`{"n":3}`))

	st := s.ClusterStats()
	if st.ReplDroppedFull == 0 {
		t.Fatalf("overflowing the 1-slot queue dropped nothing: %+v", st)
	}
}

// TestStoreCloseStopsWorkers: Close returns promptly even with a peer
// holding a push open, and later enqueues are discarded quietly.
func TestStoreCloseStopsWorkers(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, beta, _ := newTestStore(t, Config{Local: newMapStore()})
	beta.mu.Lock()
	beta.blockStores = block
	beta.mu.Unlock()

	s.Put(context.Background(), keyAlphaBeta, json.RawMessage(`{"v":7}`))
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an in-flight push")
	}
	// Post-close writes must not panic or block.
	s.Put(context.Background(), keyGammaBeta, json.RawMessage(`{"v":8}`))
}

// TestStoreSelfNotInNodes: configuration errors surface at construction.
func TestStoreSelfNotInNodes(t *testing.T) {
	_, err := New(Config{Self: "nope", Nodes: threeNodes(), Dial: func(n Node) (Peer, error) {
		return newFakePeer(), nil
	}})
	if err == nil {
		t.Fatal("New accepted a self ID missing from the node list")
	}
}
