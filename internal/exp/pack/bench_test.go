package pack

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// benchStore opens a store tuned for benchmarking: background audit off
// (the benchmarks drive the audit explicitly) and index persistence
// deferred so preloads are not dominated by INDEX rewrites.
func benchStore(b *testing.B, opts ...Option) *Store {
	b.Helper()
	st, err := Open(b.TempDir(), append([]Option{
		WithAuditInterval(0), WithIndexEvery(1 << 30),
	}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchmarkAuditThroughput measures the background auditor's CRC
// verification rate over a healthy store — the cost ceiling for the
// incremental rot scan that runs every audit interval.
func BenchmarkAuditThroughput(b *testing.B) {
	const n = 10000
	st := benchStore(b)
	var bytes int64
	for i := 0; i < n; i++ {
		blob := testBlob(i)
		bytes += int64(len(blob))
		st.Put(context.Background(), testKey(i), blob)
	}
	b.SetBytes(bytes / n)
	b.ResetTimer()
	checked := 0
	for i := 0; i < b.N; i++ {
		c, dropped := st.Audit(1)
		if dropped != 0 {
			b.Fatalf("healthy store dropped %d needles", dropped)
		}
		checked += c
	}
	if checked != b.N {
		b.Fatalf("audited %d needles over %d iterations", checked, b.N)
	}
}

// BenchmarkCompact times what replaced compaction: the boot that
// unlinks dead bundles. Each iteration preloads a store, drops every
// needle in its sealed bundles, closes it, and times the Open that
// unlinks them. Reported bytes are the dead bundles' bytes.
func BenchmarkCompact(b *testing.B) {
	const n = 4000
	opts := []Option{WithAuditInterval(0), WithIndexEvery(1 << 30), WithBundleSize(1 << 16)}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := benchStore(b, opts...)
		for j := 0; j < n; j++ {
			st.Put(context.Background(), testKey(j), testBlob(j))
		}
		st.mu.Lock()
		var dead int64
		for key, e := range st.index {
			if e.bundle != st.active {
				st.dropEntryLocked(key, e, packCorrupt)
			}
		}
		for id, bd := range st.bundles {
			if id != st.active {
				dead += bd.size
			}
		}
		st.mu.Unlock()
		if dead == 0 {
			b.Fatal("no sealed bundle to unlink")
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(dead)
		b.StartTimer()
		reopened, err := Open(filepath.Dir(st.Dir()), opts...)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if got := reopened.PackStats(); got.Bundles != 1 || got.GarbageBytes != 0 {
			b.Fatalf("boot left %+v, want the active bundle alone", got)
		}
		reopened.Close()
		b.StartTimer()
	}
}

// BenchmarkPackGet is the in-package view of the root
// BenchmarkResultStoreGet sweep: one Get against a preloaded store, at
// increasing object counts. The per-op time must stay flat — Get is one
// map probe plus one ReadAt however large the store grows.
func BenchmarkPackGet(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			st := benchStore(b)
			for i := 0; i < n; i++ {
				st.Put(context.Background(), testKey(i), testBlob(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Get(context.Background(), testKey(i%n)); !ok {
					b.Fatalf("preloaded key %d missing", i%n)
				}
			}
		})
	}
}
