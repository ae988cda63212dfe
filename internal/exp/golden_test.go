package exp

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/api"
)

// update rewrites the committed golden corpus from the current code:
//
//	go test ./internal/exp -run TestGolden -update
//
// A golden diff in review is then a deliberate decision, never a side
// effect of an ordinary test run.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenPath names one file of the golden corpus.
func goldenPath(name string) string { return filepath.Join("testdata", "golden", name) }

// checkGolden compares got against the named golden file byte for byte,
// or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden file:\n got %s\nwant %s", name, got, want)
	}
}

// expansionGolden is one line of expansion.jsonl: a spec and the digest
// of its expansion. SpecKey is the SHA-256 over the ordered run keys (as
// in SweepResult.SpecKey) and LabelsSHA256 the SHA-256 over the ordered
// FormatParams labels, one per line. A spec that fails to expand records
// the error text instead, with Total set when only a later point failed.
type expansionGolden struct {
	Spec         api.RunSpec `json:"spec"`
	Total        int         `json:"total"`
	SpecKey      string      `json:"spec_key,omitempty"`
	LabelsSHA256 string      `json:"labels_sha256,omitempty"`
	Error        string      `json:"error,omitempty"`
}

// summarizeExpansion digests spec's expansion into its golden line.
func summarizeExpansion(t *testing.T, spec Spec) expansionGolden {
	t.Helper()
	line := expansionGolden{Spec: api.RunSpec(spec)}
	x, err := spec.Expansion(MaxRuns)
	if err != nil {
		line.Error = err.Error()
		return line
	}
	line.Total = x.Total()
	keys, labels := sha256.New(), sha256.New()
	for i := 0; i < x.Total(); i++ {
		r, err := x.RunAt(i)
		if err != nil {
			line.Error = err.Error()
			return line
		}
		keys.Write([]byte(r.Key))
		labels.Write([]byte(FormatParams(r.Params) + "\n"))
	}
	for _, bad := range []int{-1, x.Total()} {
		if _, err := x.RunAt(bad); err == nil {
			t.Fatalf("RunAt(%d) accepted an out-of-range index", bad)
		}
	}
	line.SpecKey = hex.EncodeToString(keys.Sum(nil))
	line.LabelsSHA256 = hex.EncodeToString(labels.Sum(nil))
	return line
}

// TestGolden pins expansion, the served bytes of the example sweep and
// every scenario's quick-scale report against the committed corpus under
// testdata/golden.
func TestGolden(t *testing.T) {
	t.Run("expansion", func(t *testing.T) {
		// Each line carries its own spec, so -update recomputes the digests
		// of the same specs.
		f, err := os.Open(goldenPath("expansion.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var specs []Spec
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var line expansionGolden
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("expansion.jsonl: %v", err)
			}
			specs = append(specs, Spec(line.Spec))
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		for _, spec := range specs {
			line, err := json.Marshal(summarizeExpansion(t, spec))
			if err != nil {
				t.Fatal(err)
			}
			got.Write(line)
			got.WriteByte('\n')
		}
		checkGolden(t, "expansion.jsonl", got.Bytes())
	})

	spec, err := os.ReadFile(filepath.Join("..", "..", "examples", "sweep-llc.json"))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("sweep-llc.run", func(t *testing.T) {
		for _, workers := range []int{1, 8} {
			h := NewServer(NewEngine(), WithWorkers(workers)).Handler()
			for _, want := range []struct{ state, hits, misses string }{
				{"miss", "0", "6"}, // cold
				{"hit", "6", "0"},  // warm
			} {
				rec := doRequest(t, h, http.MethodPost, "/v1/run", string(spec))
				if rec.Code != http.StatusOK {
					t.Fatalf("workers=%d: POST /v1/run = %d: %s", workers, rec.Code, rec.Body)
				}
				hdr := rec.Header()
				if got := [3]string{hdr.Get(api.HeaderCache), hdr.Get(api.HeaderCacheHits), hdr.Get(api.HeaderCacheMisses)}; got != [3]string{want.state, want.hits, want.misses} {
					t.Fatalf("workers=%d: X-Cache %s %s/%s, want %s %s/%s",
						workers, got[0], got[1], got[2], want.state, want.hits, want.misses)
				}
				checkGolden(t, "sweep-llc.run.json", rec.Body.Bytes())
			}
		}
	})
	t.Run("sweep-llc.stream", func(t *testing.T) {
		h := NewServer(NewEngine()).Handler()
		rec := doRequest(t, h, http.MethodPost, "/v1/jobs", string(spec))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs = %d: %s", rec.Code, rec.Body)
		}
		var info api.JobInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		stream := doRequest(t, h, http.MethodGet, "/v1/jobs/"+info.ID+"/stream", "")
		if stream.Code != http.StatusOK {
			t.Fatalf("GET stream = %d: %s", stream.Code, stream.Body)
		}
		checkGolden(t, "sweep-llc.stream.ndjson", stream.Body.Bytes())
	})
	t.Run("scenarios.quick", func(t *testing.T) {
		// One POST /v1/run body per built-in scenario, in registry order.
		h := NewServer(NewEngine()).Handler()
		var got bytes.Buffer
		for _, s := range builtinScenarios() {
			rec := doRequest(t, h, http.MethodPost, "/v1/run",
				fmt.Sprintf(`{"scenario": %q, "scale": "quick"}`, s.Name))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: POST /v1/run = %d: %s", s.Name, rec.Code, rec.Body)
			}
			got.Write(rec.Body.Bytes())
		}
		checkGolden(t, "scenarios.quick.ndjson", got.Bytes())
	})
}
