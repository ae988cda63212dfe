package genomics

import (
	"slices"
	"testing"
)

// refBuckets is the append-based build that BuildIndex replaced: one slice
// per bucket, each k-mer hashed afresh with KmerHash.
// TestIndexMatchesReference holds the flat index to it.
func refBuckets(ref *Reference, cfg IndexConfig) [][]entry {
	buckets := make([][]entry, cfg.Buckets)
	for pos := 0; pos+cfg.K <= len(ref.Seq); pos += cfg.Stride {
		hash := KmerHash(ref.Seq[pos:], cfg.K)
		b := int(hash % uint64(cfg.Buckets))
		if cfg.MaxPositionsPerBucket > 0 && len(buckets[b]) >= cfg.MaxPositionsPerBucket {
			continue
		}
		buckets[b] = append(buckets[b], entry{fp: fingerprint(hash), pos: int32(pos)})
	}
	return buckets
}

// indexTestSeq is a 50,000-base reference with an N every 997 bases, one
// at position 3, and every seventh base in lower case.
func indexTestSeq() []byte {
	seq := NewReference(50_000, 17).Seq
	for i := range seq {
		switch {
		case i == 3 || i%997 == 0:
			seq[i] = 'N'
		case i%7 == 0:
			seq[i] += 'a' - 'A'
		}
	}
	return seq
}

// TestIndexMatchesReference requires every bucket of BuildIndex's flat
// table to hold the reference index's entries, in order, across k-mer
// lengths below, at and above the 32 bases a packed k-mer holds, strides,
// bucket caps and table sizes, on references shorter than, equal to and
// far longer than one k-mer. Last, the build must make as many
// allocations at 2^18 bases as at 2^14.
func TestIndexMatchesReference(t *testing.T) {
	seq := indexTestSeq()
	for _, k := range []int{1, 15, 31, 32, 33} {
		for _, n := range []int{0, k - 1, k, len(seq)} {
			ref := &Reference{Seq: seq[:n]}
			for _, stride := range []int{1, 3} {
				for _, maxPos := range []int{0, 1, 32} {
					for _, buckets := range []int{1, 16, 1 << 16} {
						cfg := IndexConfig{K: k, Stride: stride, QueryStride: 5, Buckets: buckets, MaxPositionsPerBucket: maxPos}
						ix, err := BuildIndex(ref, cfg)
						if err != nil {
							t.Fatalf("%d bases, %+v: %v", n, cfg, err)
						}
						for b, want := range refBuckets(ref, cfg) {
							if got := ix.bucket(b); !slices.Equal(got, want) {
								t.Fatalf("%d bases, %+v: bucket %d holds %v, want %v", n, cfg, b, got, want)
							}
							if ix.BucketLen(b) != len(want) {
								t.Fatalf("%d bases, %+v: BucketLen(%d) = %d, want %d", n, cfg, b, ix.BucketLen(b), len(want))
							}
						}
					}
				}
			}
		}
	}

	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	small, large := NewReference(1<<14, 7), NewReference(1<<18, 7)
	allocs := func(ref *Reference) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := BuildIndex(ref, DefaultIndexConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("BuildIndex made %.0f allocations at 2^14 bases and %.0f at 2^18", a, b)
	}
}

// BenchmarkBuildIndex times building Figure 11's quick-scale seeding index:
// 2^18 bases under DefaultIndexConfig.
func BenchmarkBuildIndex(b *testing.B) {
	ref := NewReference(1<<18, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(ref, DefaultIndexConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
