package genomics

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestReferenceDeterministic(t *testing.T) {
	a := NewReference(10_000, 7)
	b := NewReference(10_000, 7)
	if string(a.Seq) != string(b.Seq) {
		t.Fatal("same seed produced different references")
	}
	c := NewReference(10_000, 8)
	if string(a.Seq) == string(c.Seq) {
		t.Fatal("different seeds produced identical references")
	}
}

func TestReferenceAlphabet(t *testing.T) {
	ref := NewReference(50_000, 3)
	if len(ref.Seq) != 50_000 {
		t.Fatalf("length = %d", len(ref.Seq))
	}
	counts := map[byte]int{}
	for _, b := range ref.Seq {
		counts[b]++
	}
	for _, base := range Bases {
		if counts[base] < 5000 {
			t.Fatalf("base %c underrepresented: %d", base, counts[base])
		}
	}
	if len(counts) != 4 {
		t.Fatalf("alphabet = %v", counts)
	}
}

func TestSampleReadsGroundTruth(t *testing.T) {
	ref := NewReference(100_000, 5)
	reads, err := SampleReads(ref, 50, 150, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range reads {
		if string(rd.Seq) != string(ref.Seq[rd.TruePos:rd.TruePos+150]) {
			t.Fatalf("mutation-free read differs from reference at %d", rd.TruePos)
		}
	}
}

func TestSampleReadsRejectsLongReads(t *testing.T) {
	ref := NewReference(100, 5)
	if _, err := SampleReads(ref, 1, 150, 0, 6); err == nil {
		t.Fatal("oversized read length accepted")
	}
}

func TestKmerHashDeterministicAndCaseInsensitive(t *testing.T) {
	a := KmerHash([]byte("ACGTACGTACGTACG"), 15)
	b := KmerHash([]byte("acgtacgtacgtacg"), 15)
	if a != b {
		t.Fatal("case changed the hash")
	}
	c := KmerHash([]byte("TCGTACGTACGTACG"), 15)
	if a == c {
		t.Fatal("different k-mers collided trivially")
	}
}

func TestIndexLookupFindsIndexedKmers(t *testing.T) {
	ref := NewReference(50_000, 11)
	cfg := DefaultIndexConfig()
	idx, err := BuildIndex(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(posRaw uint16) bool {
		pos := int(posRaw) % (len(ref.Seq) - cfg.K)
		hash := KmerHash(ref.Seq[pos:], cfg.K)
		for _, p := range idx.Lookup(nil, hash) {
			if string(ref.Seq[p:int(p)+cfg.K]) == string(ref.Seq[pos:pos+cfg.K]) {
				return true
			}
		}
		// Position may have been dropped by the bucket occupancy cap;
		// accept only if the bucket is full.
		return idx.BucketLen(idx.BucketOf(hash)) >= cfg.MaxPositionsPerBucket
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	// Into a buffer with room for a full bucket, Lookup appends in place,
	// keeps what the buffer already held, and does not allocate.
	hash := KmerHash(ref.Seq[100:], cfg.K)
	want := idx.Lookup(nil, hash)
	if len(want) == 0 {
		t.Fatal("Lookup found no position for an indexed k-mer")
	}
	buf := make([]int32, 1, 1+cfg.MaxPositionsPerBucket)
	buf[0] = -1
	if got := idx.Lookup(buf, hash); &got[0] != &buf[0] || !slices.Equal(got, append([]int32{-1}, want...)) {
		t.Fatalf("Lookup into a buffer = %v, want [-1] + %v in place", got, want)
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	if n := testing.AllocsPerRun(10, func() { idx.Lookup(buf[:1], hash) }); n != 0 {
		t.Fatalf("Lookup into a buffer with capacity made %.0f allocations, want 0", n)
	}
}

func TestIndexRejectsBadConfig(t *testing.T) {
	ref := NewReference(1000, 1)
	for _, cfg := range []IndexConfig{
		{K: 0, Stride: 1, Buckets: 16},
		{K: 15, Stride: 0, Buckets: 16},
		{K: 15, Stride: 1, Buckets: 0},
	} {
		if _, err := BuildIndex(ref, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestBankLayoutPlacement(t *testing.T) {
	l := DefaultBankLayout(1024)
	seen := map[[2]int64]int{}
	for b := 0; b < 4096; b++ {
		bank, row, col := l.Place(b)
		if bank < 0 || bank >= 1024 {
			t.Fatalf("bucket %d -> bank %d", b, bank)
		}
		if col < 0 || col+l.EntryBytes > 8192 {
			t.Fatalf("bucket %d -> col %d outside the row", b, col)
		}
		seen[[2]int64{int64(bank), row}]++
	}
	// 4096 buckets over 1024 banks at 16 entries/row: all in the first row.
	for key, n := range seen {
		if key[1] != l.BaseRow {
			t.Fatalf("bucket spilled to row %d with only 4 buckets per bank", key[1])
		}
		if n != 4 {
			t.Fatalf("bank/row %v holds %d buckets, want 4", key, n)
		}
	}
}

func TestBankLayoutRowsShrinkWithBanks(t *testing.T) {
	buckets := 1 << 16
	rows1k := DefaultBankLayout(1024).RowsUsed(buckets)
	rows8k := DefaultBankLayout(8192).RowsUsed(buckets)
	if rows8k >= rows1k {
		t.Fatalf("rows per bank did not shrink: %d -> %d", rows1k, rows8k)
	}
}

func TestChainAnchorsColinear(t *testing.T) {
	// A clean co-linear chain at diagonal 1000 plus junk anchors.
	var anchors []Anchor
	for i := 0; i < 10; i++ {
		anchors = append(anchors, Anchor{ReadPos: i * 10, RefPos: 1000 + i*10})
	}
	anchors = append(anchors,
		Anchor{ReadPos: 5, RefPos: 50_000},
		Anchor{ReadPos: 50, RefPos: 20},
	)
	chain := ChainAnchors(anchors)
	if chain.Score < 10 {
		t.Fatalf("chain score = %d, want >= 10", chain.Score)
	}
	if chain.RefStart != 1000 {
		t.Fatalf("chain RefStart = %d, want 1000", chain.RefStart)
	}
}

func TestChainAnchorsEmpty(t *testing.T) {
	chain := ChainAnchors(nil)
	if chain.Score != 0 || len(chain.Anchors) != 0 {
		t.Fatalf("empty chain = %+v", chain)
	}
}

func TestChainAnchorsRespectsGapLimit(t *testing.T) {
	anchors := []Anchor{
		{ReadPos: 0, RefPos: 0},
		{ReadPos: 10, RefPos: 10_000}, // beyond the gap limit
	}
	chain := ChainAnchors(anchors)
	if chain.Score != 1 {
		t.Fatalf("gap-violating anchors chained: score %d", chain.Score)
	}
}

func TestBandedAlignPerfectMatch(t *testing.T) {
	ref := []byte("ACGTACGTACGTACGTACGT")
	res := BandedAlign(ref, ref[4:12], 4, 3)
	if want := 8 * scoreMatch; res.Score != want {
		t.Fatalf("perfect-match score = %d, want %d", res.Score, want)
	}
	if res.Cells <= 0 {
		t.Fatal("no DP cells evaluated")
	}
}

func TestBandedAlignPenalizesErrors(t *testing.T) {
	ref := []byte("AAAAAAAAAACCCCCCCCCC")
	read := []byte("AAAAATAAAA")
	res := BandedAlign(ref, read, 0, 3)
	// The aligner is semi-global (end gaps free): the best alignment
	// treats the T as an insertion, scoring 9 matches and one gap —
	// better than the mismatch alternative (9*2-4=14), and strictly
	// below a perfect 10-match score.
	want := 9*scoreMatch + scoreGap
	if res.Score != want {
		t.Fatalf("score = %d, want %d", res.Score, want)
	}
	if perfect := BandedAlign(ref, ref[:10], 0, 3); perfect.Score <= res.Score {
		t.Fatalf("error-free score %d not above erroneous %d", perfect.Score, res.Score)
	}
}

func TestBandedAlignBoundary(t *testing.T) {
	ref := []byte("ACGT")
	if res := BandedAlign(ref, nil, 0, 4); res.Score != 0 {
		t.Fatalf("empty read score = %d", res.Score)
	}
	if res := BandedAlign(ref, []byte("ACGT"), 100, 4); res.Score != 0 {
		t.Fatalf("out-of-window alignment score = %d", res.Score)
	}
	// Negative refStart clamps to 0.
	res := BandedAlign(ref, []byte("ACGT"), -5, 4)
	if res.RefStart != 0 {
		t.Fatalf("RefStart = %d, want clamped 0", res.RefStart)
	}
}
