package exp

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp/fsio"
	"repro/internal/exp/pack"
	"repro/pkg/api"
)

const restartSpec = `{
	"scenario": "covert-pnm",
	"scale": "quick",
	"grid": {"llc_bytes": [4194304, 8388608]}
}`

// openPack opens a pack store under dir with no background maintainer,
// closing it when the test ends.
func openPack(t *testing.T, dir string) *pack.Store {
	t.Helper()
	st, err := pack.Open(dir, pack.WithAuditInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestServerRestartDurability is the acceptance-criteria test for the
// durable store: a server restarted on the same data dir (modeled as a
// fresh engine over the same directory) serves a previously computed
// sweep with X-Cache: hit and a byte-identical body, without
// re-simulating — and the disk path changes no response byte versus
// memory or a cold simulation.
func TestServerRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "data")

	st1 := openPack(t, dir)
	h1 := NewServer(NewEngine(WithStore(st1)), WithWorkers(2)).Handler()
	cold := doRequest(t, h1, http.MethodPost, "/v1/run", restartSpec)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold POST = %d: %s", cold.Code, cold.Body)
	}
	if got := cold.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("cold POST X-Cache = %q, want miss", got)
	}
	warm := doRequest(t, h1, http.MethodPost, "/v1/run", restartSpec)
	if got := warm.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("warm POST X-Cache = %q, want hit", got)
	}

	// "Restart": the first store seals its bundles, then a brand-new
	// engine opens the same data dir. Its memory cache is empty, so every
	// hit below came off disk.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openPack(t, dir)
	eng2 := NewEngine(WithStore(st2))
	h2 := NewServer(eng2, WithWorkers(2)).Handler()
	restarted := doRequest(t, h2, http.MethodPost, "/v1/run", restartSpec)
	if restarted.Code != http.StatusOK {
		t.Fatalf("restarted POST = %d: %s", restarted.Code, restarted.Body)
	}
	if got := restarted.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("restarted POST X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), restarted.Body.Bytes()) {
		t.Fatal("disk-served response is not byte-identical to the cold response")
	}
	if c := eng2.Cache().Stats().Computes; c != 0 {
		t.Fatalf("restarted engine simulated %d runs, want 0", c)
	}
	if hits := st2.PackStats().Hits; hits != 2 {
		t.Fatalf("store hits = %d, want 2 (one per unique run)", hits)
	}

	// A second request on the restarted engine is a pure memory hit: the
	// disk entries were promoted, not re-read.
	doRequest(t, h2, http.MethodPost, "/v1/run", restartSpec)
	if hits := st2.PackStats().Hits; hits != 2 {
		t.Fatalf("store hits grew to %d on a memory-warm request", hits)
	}

	// The cold path with no store at all also produces the same bytes.
	pure := doRequest(t, NewServer(NewEngine(), WithWorkers(2)).Handler(), http.MethodPost, "/v1/run", restartSpec)
	if !bytes.Equal(pure.Body.Bytes(), cold.Body.Bytes()) {
		t.Fatal("store layering changed response bytes")
	}
}

// TestPackMigrationServesByteIdentical pins what happens to a data dir
// written in the retired one-file-per-result layout (the "impactstore1"
// record framing at <dir>/<key[:2]>/<key>): pack.Open reads only
// <dir>/pack, so the legacy results miss and are re-simulated to the
// same bytes — reports are content-addressed — then served from the pack
// store, while the legacy files stay exactly as they were.
func TestPackMigrationServesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "data")

	cold := doRequest(t, NewServer(NewEngine(), WithWorkers(2)).Handler(), http.MethodPost, "/v1/run", restartSpec)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold POST = %d: %s", cold.Code, cold.Body)
	}
	var sweep api.SweepResult
	if err := json.Unmarshal(cold.Body.Bytes(), &sweep); err != nil {
		t.Fatal(err)
	}
	legacy := make(map[string][]byte, len(sweep.Runs))
	for _, rr := range sweep.Runs {
		fanout := filepath.Join(dir, rr.Key[:2])
		if err := os.MkdirAll(fanout, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(fanout, rr.Key)
		legacy[path] = fsio.EncodeRecord("impactstore1", rr.Report)
		if err := os.WriteFile(path, legacy[path], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// "Upgrade restart": the same data dir, opened by the pack store —
	// exactly what impact-server -data-dir does on boot.
	st := openPack(t, dir)
	first := doRequest(t, NewServer(NewEngine(WithStore(st)), WithWorkers(2)).Handler(), http.MethodPost, "/v1/run", restartSpec)
	if first.Code != http.StatusOK {
		t.Fatalf("first POST = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first POST X-Cache = %q, want miss", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("re-simulated response is not byte-identical to a fresh engine's")
	}

	// A fresh engine over the same store: its memory tier is empty, so
	// the hit comes from the pack store.
	eng := NewEngine(WithStore(st))
	second := doRequest(t, NewServer(eng, WithWorkers(2)).Handler(), http.MethodPost, "/v1/run", restartSpec)
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second POST X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("pack-served response is not byte-identical to a fresh engine's")
	}
	if c := eng.Cache().Stats().Computes; c != 0 {
		t.Fatalf("second engine simulated %d runs, want 0", c)
	}
	if hits := st.PackStats().Hits; hits != 2 {
		t.Fatalf("store hits = %d, want 2 (one per unique run)", hits)
	}

	// The legacy files are untouched.
	for path, want := range legacy {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("legacy file %s changed: %v", path, err)
		}
	}
}

// corruptNeedle flips the first payload byte of key's needle in the
// bundles under dir. A needle header is magic (4 bytes), the raw key
// (32), the payload length (4) and its CRC (4), so the payload starts 40
// bytes past the raw key.
func corruptNeedle(t *testing.T, dir, key string) {
	t.Helper()
	raw, err := hex.DecodeString(key)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "pack", "bundle-*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range bundles {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(data, raw); i >= 0 {
			data[i+40] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no needle for key %s under %s", key, dir)
}

// TestStoreCorruptEntryReSimulates pins end-to-end healing: corrupting
// one stored report downgrades exactly that run to a re-simulation on the
// next cold-memory lookup, with the response still byte-identical.
func TestStoreCorruptEntryReSimulates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "data")
	st1 := openPack(t, dir)
	spec, err := ParseSpec([]byte(restartSpec))
	if err != nil {
		t.Fatal(err)
	}
	first, err := NewEngine(WithStore(st1)).RunSpec(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first run's entry on disk.
	key := first.Runs[0].Key
	corruptNeedle(t, dir, key)

	st2 := openPack(t, dir)
	second, err := NewEngine(WithStore(st2)).RunSpec(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if second.Hits != 1 || second.Misses != 1 {
		t.Fatalf("hits=%d misses=%d after corrupting one of two entries, want 1/1", second.Hits, second.Misses)
	}
	if got := st2.PackStats().CorruptDropped; got != 1 {
		t.Fatalf("corrupt_dropped = %d, want 1", got)
	}
	firstJSON, _ := json.Marshal(first)
	secondJSON, _ := json.Marshal(second)
	if !bytes.Equal(firstJSON, secondJSON) {
		t.Fatal("re-simulated sweep differs from the original")
	}
	// The re-simulation wrote the entry back clean.
	if _, ok := st2.Get(context.Background(), key); !ok {
		t.Fatal("healed entry missing from the store")
	}
}
