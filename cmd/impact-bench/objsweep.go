package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp/pack"
	"repro/internal/metrics"
)

// The object-count sweep (-objects) measures the one thing an HTTP load
// test cannot isolate: how the pack store's latency scales with the
// number of objects it holds. It bypasses the server entirely — opens
// the store directly at -data-dir, preloads N synthetic
// content-addressed results from a worker pool, then times M random
// Gets against the populated store. Running it across decades of N
// (10^3 → 10^6) reproduces the pack engine's headline claim: flat
// lookup latency at any object count.
//
//	impact-bench -objects 100000 -gets 20000 -data-dir /tmp/sweep-pack
//
// Payloads are deterministic functions of the object number, so a
// re-run over the same data dir preloads nothing new (every Put is
// first-write-wins on an existing key) and still measures Gets — which
// also makes the preload restartable after an interruption.

// objPayload builds the i'th synthetic result: a small report-shaped
// JSON document, deterministic in i, sized like a real quick-scale run
// report (a few hundred bytes).
func objPayload(i int64) []byte {
	rng := rand.New(rand.NewSource(i + 1))
	doc := map[string]any{
		"object":      i,
		"scenario":    "synthetic-objsweep",
		"metric":      rng.Float64(),
		"ci_low":      rng.Float64(),
		"ci_high":     rng.Float64(),
		"samples":     rng.Intn(1 << 16),
		"elapsed_ns":  rng.Int63n(1 << 40),
		"grid_point":  map[string]any{"llc_bytes": 1 << (20 + uint(i%6)), "seed": i},
		"annotations": "synthetic preload object for the store object-count sweep",
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a map of plain scalars cannot fail to marshal
	}
	return blob
}

// objKey is the content address of the i'th synthetic payload.
func objKey(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// openPack opens the pack store at dir without its background
// maintainer, so a measurement sees only the operations under test.
func openPack(dir string) (*pack.Store, error) {
	return pack.Open(dir, pack.WithAuditInterval(0))
}

// objSummary is the object-sweep report.
type objSummary struct {
	Objects        int64   `json:"objects"`
	PreloadSeconds float64 `json:"preload_seconds"`
	PutsPerSec     float64 `json:"puts_per_sec"`
	Gets           int64   `json:"gets"`
	GetMisses      int64   `json:"get_misses"`
	GetsPerSec     float64 `json:"gets_per_sec"`
	GetP50         int64   `json:"get_p50_ns"`
	GetP90         int64   `json:"get_p90_ns"`
	GetP99         int64   `json:"get_p99_ns"`
	GetMeanNs      float64 `json:"get_mean_ns"`
}

// runObjectSweep preloads the store and measures random Gets.
func runObjectSweep(cfg config, stdout io.Writer) error {
	st, err := openPack(cfg.dataDir)
	if err != nil {
		return err
	}
	defer st.Close()

	met := metrics.NewGroups([]string{"get"}, []string{"requests", "misses"},
		"latency_ns", metrics.LatencyBounds())

	// Preload: workers claim object numbers from a shared counter. Every
	// payload is deterministic, so reruns and races are both harmless —
	// first write wins on the content address.
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= cfg.objects {
					return
				}
				payload := objPayload(i)
				st.Put(context.Background(), objKey(payload), payload)
			}
		}()
	}
	wg.Wait()
	preload := time.Since(start)

	// Measure: each worker probes uniformly random preloaded keys. A miss
	// is counted, not fatal — but the smoke gate below refuses a run where
	// the store lost objects.
	var claimed atomic.Int64
	start = time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for claimed.Add(1) <= cfg.gets {
				payload := objPayload(rng.Int63n(cfg.objects))
				key := objKey(payload)
				t0 := time.Now()
				_, ok := st.Get(context.Background(), key)
				met.Observe(0, time.Since(t0).Nanoseconds())
				met.Add(0, 0, 1)
				if !ok {
					met.Add(0, 1, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	getElapsed := time.Since(start)

	lat := met.Histogram(0)
	sum := objSummary{
		Objects:        cfg.objects,
		PreloadSeconds: preload.Seconds(),
		PutsPerSec:     rate(cfg.objects, preload),
		Gets:           met.Value(0, 0),
		GetMisses:      met.Value(0, 1),
		GetsPerSec:     rate(met.Value(0, 0), getElapsed),
		GetP50:         lat.Quantile(0.50),
		GetP90:         lat.Quantile(0.90),
		GetP99:         lat.Quantile(0.99),
		GetMeanNs:      lat.Mean(),
	}

	if cfg.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "impact-bench: object sweep, objects=%d workers=%d at %s\n",
			sum.Objects, cfg.workers, cfg.dataDir)
		fmt.Fprintf(stdout, "preload: %.2fs (%.0f puts/s)\n", sum.PreloadSeconds, sum.PutsPerSec)
		fmt.Fprintf(stdout, "get:     %d probes, %d misses, %.0f gets/s, p50 %s  p90 %s  p99 %s\n",
			sum.Gets, sum.GetMisses, sum.GetsPerSec,
			time.Duration(sum.GetP50).Round(time.Microsecond),
			time.Duration(sum.GetP90).Round(time.Microsecond),
			time.Duration(sum.GetP99).Round(time.Microsecond))
	}
	if cfg.smoke {
		if sum.GetMisses > 0 || sum.Gets == 0 {
			return fmt.Errorf("smoke check failed: gets=%d misses=%d", sum.Gets, sum.GetMisses)
		}
		// As in the load-test path: keep -json stdout a single document.
		dst := stdout
		if cfg.jsonOut {
			dst = os.Stderr
		}
		fmt.Fprintln(dst, "smoke: ok")
	}
	return nil
}
