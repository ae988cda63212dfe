package exp

import (
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkJournalRecord times one job's journal records per op, as a
// durable job writes them: its spec record at submission, its done
// status record when it settles, and a watermark record every seqChunk
// jobs. Every record is fsynced, so the numbers depend on the disk under
// the temp dir. serial is one writer; parallel is 8 goroutines sharing
// the journal, as concurrent submissions and settling jobs do. Recorded
// in docs/benchmark.md.
func BenchmarkJournalRecord(b *testing.B) {
	spec, err := ParseSpec([]byte(`{"scenario": "covert-pum", "scale": "quick", "grid": {"noise.seed": [11, 12, 13, 14]}}`))
	if err != nil {
		b.Fatal(err)
	}
	record := func(jl *Journal, n int) error {
		if n%seqChunk == 1 {
			if err := jl.RecordSeq(n + seqChunk); err != nil {
				return err
			}
		}
		id := formatJobID(n)
		if err := jl.RecordSpec(id, spec); err != nil {
			return err
		}
		return jl.RecordStatus(id, journalStatus{Status: JobDone})
	}
	open := func(b *testing.B) *Journal {
		jl, err := NewJournal(filepath.Join(b.TempDir(), "jobs"))
		if err != nil {
			b.Fatal(err)
		}
		jl.Recover() // as a server boots
		return jl
	}
	report := func(b *testing.B) {
		records := 2*b.N + (b.N+seqChunk-1)/seqChunk
		b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
	}

	b.Run("serial", func(b *testing.B) {
		jl := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			if err := record(jl, i); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b)
	})
	b.Run("parallel", func(b *testing.B) {
		jl := open(b)
		var next atomic.Int64
		procs := runtime.GOMAXPROCS(0)
		b.SetParallelism((8 + procs - 1) / procs) // at least 8 writers
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := record(jl, int(next.Add(1))); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		report(b)
	})
}
