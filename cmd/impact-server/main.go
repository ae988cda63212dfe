// Command impact-server serves the experiment engine over HTTP, speaking
// the typed v1 contract defined in pkg/api (drive it with pkg/client):
// POST /v1/run executes a declarative sweep spec (see api.RunSpec), POST
// /v1/jobs enqueues one as an asynchronous job (listed newest-first on
// GET /v1/jobs, polled on GET /v1/jobs/{id}, canceled with DELETE
// /v1/jobs/{id}, streamed as NDJSON on GET /v1/jobs/{id}/stream), GET
// /v1/figures/{id} replays one paper artifact, GET /v1/scenarios lists the
// registry, GET /v1/metrics reports per-route request counters plus
// cache/pack/job statistics, and GET /healthz reports build info and
// cache hit/miss counters. Because the simulator is deterministic, every report is
// content-addressed and served from the sharded result cache after its
// first computation, with identical in-flight requests deduplicated onto
// one simulation; with -data-dir the cache is additionally backed by the
// durable pack store, so a restarted server answers previously computed
// sweeps without re-simulating. The pack store appends results into large
// bundle files behind a compact needle index — one seek per lookup at any
// object count, with a background CRC auditor.
//
// With -data-dir the async job registry is durable too: accepted jobs
// journal their spec under <data-dir>/jobs at submission and their status
// once they settle, SIGINT/SIGTERM drains gracefully (new submissions get
// 503, in-flight runs finish and land in the store, interrupted jobs
// journal a resumable state, all within -drain-timeout), and a restart on
// the same data dir re-enqueues every job the previous process left
// unfinished — skipping the runs it already computed. A second signal
// during the drain kills immediately.
// See docs/api.md for the full wire contract and docs/architecture.md for
// the recovery flow.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/exp/pack"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "impact-server:", err)
		os.Exit(1)
	}
}

// parsePeers parses the -peers membership list: comma-separated id=addr
// entries, e.g. "n1=10.0.0.1:8322,n2=10.0.0.2:8322,n3=10.0.0.3:8322".
// Uniqueness and non-emptiness are validated again by the ring; this
// only handles the flag syntax.
func parsePeers(raw string) ([]cluster.Node, error) {
	parts := strings.Split(raw, ",")
	nodes := make([]cluster.Node, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("malformed -peers entry %q (want id=addr)", part)
		}
		nodes = append(nodes, cluster.Node{ID: id, Addr: addr})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-peers %q names no nodes", raw)
	}
	return nodes, nil
}

// run parses flags and serves until the listener fails or a termination
// signal starts the graceful drain. When ready is non-nil the bound
// address is sent on it once the listener is up (tests use this to
// connect to a :0 listener).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("impact-server", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8322", "listen address")
	workers := fs.Int("workers", 0, "per-request simulation pool size (0 = all cores)")
	dataDir := fs.String("data-dir", "", "durable result store + job journal directory (empty = in-memory only)")
	maxJobs := fs.Int("max-jobs", 0, "async job registry bound; finished jobs retire FIFO (0 = default 256)")
	drain := fs.Duration("drain-timeout", 30*time.Second,
		"graceful-shutdown budget: in-flight jobs finish and journal before exit")
	nodeID := fs.String("node-id", "", "this node's stable cluster identity (required with -peers)")
	peers := fs.String("peers", "",
		"static cluster membership as id=addr,id=addr,... including this node; "+
			"results shard across members by consistent hashing with async replication")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("negative worker count %d", *workers)
	}
	if *maxJobs < 0 {
		return fmt.Errorf("negative job bound %d", *maxJobs)
	}
	if *drain <= 0 {
		return fmt.Errorf("non-positive drain timeout %s", *drain)
	}

	if *peers != "" && *nodeID == "" {
		return fmt.Errorf("-peers requires -node-id")
	}

	var engineOpts []exp.EngineOption
	serverOpts := []exp.ServerOption{exp.WithWorkers(*workers), exp.WithMaxJobs(*maxJobs)}
	// The health document names the node's backend: "pack" with a data
	// dir, "memory" without one.
	storeLabel := "memory"
	var localStore exp.ResultStore
	if *dataDir != "" {
		// The pack engine keeps its bundles under <data-dir>/pack and the
		// job journal lives under "jobs"; the names cannot collide.
		store, err := pack.Open(*dataDir)
		if err != nil {
			return err
		}
		// Registered before the drain defers run, so it executes after them:
		// in-flight jobs finish writing through first, then the store
		// persists its index and seals the bundles.
		defer store.Close()
		localStore, storeLabel = store, "pack"
		fmt.Fprintf(os.Stderr, "impact-server: pack result store at %s\n", store.Dir())
		journal, err := exp.NewJournal(filepath.Join(*dataDir, "jobs"))
		if err != nil {
			return err
		}
		serverOpts = append(serverOpts, exp.WithJournal(journal))
	}
	if *peers != "" {
		nodes, err := parsePeers(*peers)
		if err != nil {
			return err
		}
		clusterStore, err := cluster.New(cluster.Config{
			Self:  *nodeID,
			Nodes: nodes,
			Local: localStore,
		})
		if err != nil {
			return err
		}
		// Registered after the pack store's Close defer, so it runs first:
		// replication workers stop before the pack files they write through
		// seal.
		defer clusterStore.Close()
		engineOpts = append(engineOpts, exp.WithStore(clusterStore))
		serverOpts = append(serverOpts,
			exp.WithNodeIdentity(*nodeID, storeLabel, clusterStore.Ring().Len()-1))
		fmt.Fprintf(os.Stderr, "impact-server: cluster node %s in a %d-node ring (R=%d)\n",
			*nodeID, clusterStore.Ring().Len(), cluster.DefaultReplicas)
	} else {
		if localStore != nil {
			engineOpts = append(engineOpts, exp.WithStore(localStore))
		}
		id := *nodeID
		if id == "" {
			id = "solo"
		}
		serverOpts = append(serverOpts, exp.WithNodeIdentity(id, storeLabel, 0))
	}
	engine := exp.NewEngine(engineOpts...)
	expSrv := exp.NewServer(engine, serverOpts...)
	if n := expSrv.JobsStats().Resumed; n > 0 {
		fmt.Fprintf(os.Stderr, "impact-server: resumed %d unfinished job(s) from the journal\n", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "impact-server: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	srv := &http.Server{
		Handler: expSrv.Handler(),
		// Bound how long a client may dribble headers/body so stalled
		// connections cannot pin goroutines and file descriptors.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Restore default signal handling: a second SIGINT/SIGTERM during the
	// drain kills the process immediately.
	stop()

	fmt.Fprintf(os.Stderr, "impact-server: draining (up to %s): in-flight jobs finish and journal\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Quiesce the job registry before the HTTP listener: job streams hold
	// their connections until the job settles, so draining jobs first is
	// what lets srv.Shutdown below see those connections go idle.
	if err := expSrv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "impact-server: drain incomplete:", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	fmt.Fprintln(os.Stderr, "impact-server: drained cleanly")
	return nil
}
