//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/exp/fsio"
	"repro/pkg/api"
)

// seedSpecDoc returns a spec document with n unique cold runs.
func seedSpecDoc(n int) string {
	seeds := make([]string, n)
	for i := range seeds {
		seeds[i] = fmt.Sprint(5000 + i)
	}
	return `{"scenario": "covert-pnm", "grid": {"noise.seed": [` + strings.Join(seeds, ", ") + `]}}`
}

// httpJSON issues one request against base and decodes the JSON body.
func httpJSON(t *testing.T, method, url string, body string, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", api.ContentTypeJSON)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("decoding %s %s: %v\n%s", method, url, err, blob)
		}
	}
	return resp.StatusCode, resp.Header
}

// pollUntil polls the job until cond holds, failing on the deadline.
func pollUntil(t *testing.T, base, id, what string, cond func(api.JobInfo) bool) api.JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info api.JobInfo
		code, _ := httpJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "", &info)
		if code == http.StatusOK && cond(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (last status %d, info %+v)", what, code, info)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGracefulSigtermDrainsAndResumes sends a real SIGTERM to the serving
// process mid-sweep: run() must drain (in-flight work journaled, clean nil
// return), and a second run() on the same data dir must resume the
// interrupted job under the same ID, skipping every run the first process
// already stored.
//
// The job's second run is parked in the engine.run failpoint until the
// draining server refuses a submission with 503. The registry interrupts
// its jobs in the same step that starts refusing, so the job is caught
// mid-sweep however fast the machine runs the other 63.
func TestGracefulSigtermDrainsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("signal/network test in -short mode")
	}
	var runs atomic.Int32
	parked, release := make(chan struct{}), make(chan struct{})
	fsio.SetFailpoint("engine.run", func() error {
		if runs.Add(1) == 2 {
			close(parked)
			<-release
		}
		return nil
	})
	defer fsio.SetFailpoint("engine.run", nil)
	dataDir := t.TempDir()
	boot := func() (string, chan error) {
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		go func() {
			errc <- run([]string{"-addr", "localhost:0", "-workers", "1",
				"-data-dir", dataDir, "-drain-timeout", "30s"}, ready)
		}()
		select {
		case addr := <-ready:
			return "http://" + addr, errc
		case err := <-errc:
			t.Fatalf("server exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
		}
		panic("unreachable")
	}

	base, errc := boot()
	spec := seedSpecDoc(64)
	var queued api.JobInfo
	if code, _ := httpJSON(t, http.MethodPost, base+"/v1/jobs", spec, &queued); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	// The single worker lands run 0 and parks in run 1; then pull the plug.
	select {
	case <-parked:
	case <-time.After(60 * time.Second):
		t.Fatal("the job's second run never started")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// An empty spec names no scenario, so it never makes a job: it is
	// refused with 404 until the drain starts, then with 503.
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _ := httpJSON(t, http.MethodPost, base+"/v1/jobs", "{}", nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusNotFound || time.Now().After(deadline) {
			t.Fatalf("probe during drain = %d, want 404 until the drain refuses with 503", code)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}

	// Restart on the same data dir: the job comes back under its ID and
	// finishes, re-simulating only the runs the first process never stored.
	base2, errc2 := boot()
	final := pollUntil(t, base2, queued.ID, "resumed job to finish", func(i api.JobInfo) bool {
		return api.JobTerminal(i.Status)
	})
	if final.Status != api.JobDone || !final.Resumed || final.Completed != 64 {
		t.Fatalf("resumed job = %+v", final)
	}
	var doc api.MetricsDoc
	if code, _ := httpJSON(t, http.MethodGet, base2+"/v1/metrics", "", &doc); code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if doc.Jobs.Resumed != 1 || doc.Jobs.RunsSkippedOnResume < 1 {
		t.Fatalf("jobs metrics = %+v, want resumed=1 and runs_skipped_on_resume>0", doc.Jobs)
	}
	if doc.Jobs.RunsSkippedOnResume+int64(final.Misses) != 64 {
		t.Fatalf("skipped %d + re-simulated %d != 64", doc.Jobs.RunsSkippedOnResume, final.Misses)
	}

	// Drain the second server too, so nothing is still serving (or
	// journaling) when the test's temp dir is torn down.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc2:
		if err != nil {
			t.Fatalf("second drain exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("second server did not drain after SIGTERM")
	}
}

// TestRecoverySmoke is the kill-9 end-to-end over the pack store: build
// the real binary, kill it -9 mid-job (no drain, no journal flush beyond
// what already landed), restart it on the same data dir, and require the
// job to complete with a sweep byte-identical to the synchronous answer.
// The kill lands between index writes, so the restart exercises the
// bundle tail scan on the real binary. Wired into CI as
// `make recovery-smoke`.
func TestRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "impact-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building server: %v\n%s", err, out)
	}
	t.Run("pack", func(t *testing.T) { recoverySmoke(t, bin) })
}

func recoverySmoke(t *testing.T, bin string) {
	dataDir := filepath.Join(t.TempDir(), "data")

	// start launches the binary and scrapes the listen address off stderr.
	start := func() (*exec.Cmd, string) {
		cmd := exec.Command(bin, "-addr", "localhost:0", "-workers", "2",
			"-data-dir", dataDir)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		addr := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), "impact-server: listening on http://"); ok {
					addr <- rest
				}
			}
		}()
		select {
		case a := <-addr:
			return cmd, "http://" + a
		case <-time.After(10 * time.Second):
			t.Fatal("server never reported its address")
		}
		panic("unreachable")
	}

	cmd, base := start()
	spec := seedSpecDoc(32)
	var queued api.JobInfo
	if code, _ := httpJSON(t, http.MethodPost, base+"/v1/jobs", spec, &queued); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	pollUntil(t, base, queued.ID, "mid-sweep progress", func(i api.JobInfo) bool {
		return i.Completed >= 1
	})
	// kill -9: no graceful anything. Whatever reached disk is the truth.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	_, base2 := start()
	final := pollUntil(t, base2, queued.ID, "recovered job to finish", func(i api.JobInfo) bool {
		return api.JobTerminal(i.Status)
	})
	if final.Status != api.JobDone || !final.Resumed || final.Completed != 32 {
		t.Fatalf("recovered job = %+v", final)
	}

	// Byte identity: every stream line must equal the corresponding run of
	// the synchronous sweep, and the spec keys must agree — a crash plus
	// recovery is invisible in the result bytes.
	resp, err := http.Get(base2 + "/v1/jobs/" + queued.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	streamBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d (%v)", resp.StatusCode, err)
	}
	lines := bytes.Split(bytes.TrimSuffix(streamBody, []byte("\n")), []byte("\n"))
	var sweep struct {
		SpecKey string            `json:"spec_key"`
		Runs    []json.RawMessage `json:"runs"`
	}
	if code, _ := httpJSON(t, http.MethodPost, base2+"/v1/run", spec, &sweep); code != http.StatusOK {
		t.Fatalf("sync run = %d", code)
	}
	if sweep.SpecKey != final.SpecKey {
		t.Fatalf("spec keys differ: job %q vs sweep %q", final.SpecKey, sweep.SpecKey)
	}
	if len(lines) != len(sweep.Runs) {
		t.Fatalf("stream has %d lines, sweep has %d runs", len(lines), len(sweep.Runs))
	}
	for i := range lines {
		want := bytes.TrimSpace([]byte(sweep.Runs[i]))
		if !bytes.Equal(lines[i], want) {
			t.Fatalf("stream line %d differs from sweep run:\n got %s\nwant %s", i, lines[i], want)
		}
	}
	var doc api.MetricsDoc
	if code, _ := httpJSON(t, http.MethodGet, base2+"/v1/metrics", "", &doc); code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if doc.Jobs.RunsSkippedOnResume < 1 {
		t.Fatalf("runs_skipped_on_resume = %d, want > 0", doc.Jobs.RunsSkippedOnResume)
	}
	if doc.Pack == nil || doc.Pack.IndexEntries < 1 || doc.Pack.Hits < 1 {
		t.Fatalf("pack section = %+v, want live entries and hits", doc.Pack)
	}
}
