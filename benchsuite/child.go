package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/exp/pack"
	"repro/internal/figures"
	"repro/pkg/api"
)

// childEnv marks a re-executed suite binary as the child process that
// hosts the system under test. The parent stays the load generator, so the
// child's CPU and allocation counters measure the server alone.
const childEnv = "IMPACT_SUITE_CHILD"

// runtimeDoc is the child's answer on GET /_bench/runtime.
type runtimeDoc struct {
	CPUNs        int64  `json:"cpu_ns"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	GCCycles     uint64 `json:"gc_cycles"`
	PeakRSSKB    int64  `json:"peak_rss_kb"`
	ServerNewNs  int64  `json:"server_new_ns"`
}

// childMain is the child's entry point; it returns the exit code.
func childMain(args []string) int {
	fs := flag.NewFlagSet("impact-suite child", flag.ContinueOnError)
	dataDir := fs.String("data", "", "pack store and job journal directory (empty = memory only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := serveChild(*dataDir); err != nil {
		fmt.Fprintln(os.Stderr, "impact-suite child:", err)
		return 1
	}
	return 0
}

// serveChild wires the engine and server the way cmd/impact-server does,
// mounts the harness routes beside them, prints the listen address on
// stdout and serves until SIGTERM, then drains like impact-server.
func serveChild(dataDir string) error {
	// The parent holds the write end of stdin: EOF means it died, and a
	// child must never outlive its parent.
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(3)
	}()

	var engineOpts []exp.EngineOption
	var serverOpts []exp.ServerOption
	if dataDir != "" {
		store, err := pack.Open(dataDir)
		if err != nil {
			return err
		}
		defer store.Close()
		journal, err := exp.NewJournal(filepath.Join(dataDir, "jobs"))
		if err != nil {
			return err
		}
		engineOpts = append(engineOpts, exp.WithStore(store))
		serverOpts = append(serverOpts, exp.WithJournal(journal))
	}
	start := time.Now()
	srv := exp.NewServer(exp.NewEngine(engineOpts...), serverOpts...)
	serverNew := time.Since(start)

	rec := &spanRecorder{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /_bench/runtime", func(w http.ResponseWriter, _ *http.Request) {
		doc := readRuntime()
		doc.ServerNewNs = serverNew.Nanoseconds()
		json.NewEncoder(w).Encode(doc)
	})
	mux.HandleFunc("POST /_bench/trace", func(w http.ResponseWriter, r *http.Request) {
		rec.on.Store(r.URL.Query().Get("on") == "1")
	})
	mux.HandleFunc("GET /_bench/spans", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(rec.drain())
	})
	mux.Handle("POST /_bench/figures", rec.wrap(http.HandlerFunc(serveFigures)))
	mux.Handle("/", rec.wrap(srv.Handler()))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("listening %s\n", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Jobs first, as in impact-server: their streams hold connections the
	// HTTP shutdown would otherwise wait on.
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	if err := hs.Shutdown(dctx); err != nil {
		return err
	}
	<-errc
	return nil
}

// serveFigures generates and renders the quick-scale artifact ?id= names.
// Unlike GET /v1/figures/{id}, it never answers from the result cache.
func serveFigures(w http.ResponseWriter, r *http.Request) {
	rep, err := figures.Run(r.URL.Query().Get("id"), figures.ScaleQuick)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(renderSuite([]figures.Report{rep}))
}

// renderSuite is the byte form the paper-figures checksum pins.
func renderSuite(reps []figures.Report) []byte {
	var buf bytes.Buffer
	for _, rep := range reps {
		rep.Render(&buf)
	}
	return buf.Bytes()
}

// readRuntime samples this process's CPU time, heap allocation counters,
// GC cycles and peak RSS.
func readRuntime() runtimeDoc {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return runtimeDoc{
		CPUNs:      cpuTime().Nanoseconds(),
		AllocBytes: samples[0].Value.Uint64(),
		// Tiny allocations are counted apart from the rest; testing's
		// allocs/op counts both.
		AllocObjects: samples[1].Value.Uint64() + samples[2].Value.Uint64(),
		GCCycles:     samples[3].Value.Uint64(),
		PeakRSSKB:    peakRSSKB(),
	}
}

// spanRecorder keeps a server.handler span per request while tracing is
// on. Spans join the client's through the X-Request-ID the load
// generator sets.
type spanRecorder struct {
	on    atomic.Bool
	seq   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (rec *spanRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		trace := r.Header.Get(api.HeaderRequestID)
		s := span{
			Trace:  trace,
			ID:     fmt.Sprintf("%s/server-%d", trace, rec.seq.Add(1)),
			Parent: trace,
			Name:   "server.handler",
			Start:  start.UnixNano(),
			End:    end.UnixNano(),
		}
		rec.mu.Lock()
		rec.spans = append(rec.spans, s)
		rec.mu.Unlock()
	})
}

func (rec *spanRecorder) drain() []span {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := rec.spans
	rec.spans = nil
	return out
}

// child is the parent's handle on one running child process.
type child struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	base    string
	ctl     *http.Client
	stopped bool
}

// startChild re-executes this binary as a child serving on loopback
// (over dataDir when non-empty) and returns once it listens.
func startChild(dataDir string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-data", dataDir)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, ctl: &http.Client{Timeout: time.Minute}}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		c.kill()
		return nil, fmt.Errorf("child did not report a listen address (read %q: %v)", line, err)
	}
	c.base = "http://" + addr
	return c, nil
}

// stop drains the child with SIGTERM, as an operator would, and waits for
// it to exit.
func (c *child) stop() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	defer c.stdin.Close()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.cmd.Wait()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		c.cmd.Process.Kill()
		<-done
		return errors.New("child did not drain within a minute")
	}
}

// kill ends the child at once; for error paths.
func (c *child) kill() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.stdin.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// getJSON fetches one harness or metrics document from the child.
func (c *child) getJSON(path string, out any) error {
	resp, err := c.ctl.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *child) runtime() (runtimeDoc, error) {
	var doc runtimeDoc
	err := c.getJSON("/_bench/runtime", &doc)
	return doc, err
}

func (c *child) metrics() (api.MetricsDoc, error) {
	var doc api.MetricsDoc
	err := c.getJSON("/v1/metrics", &doc)
	return doc, err
}

func (c *child) spans() ([]span, error) {
	var out []span
	err := c.getJSON("/_bench/spans", &out)
	return out, err
}

func (c *child) setTrace(on bool) error {
	v := "0"
	if on {
		v = "1"
	}
	resp, err := c.ctl.Post(c.base+"/_bench/trace?on="+v, "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
