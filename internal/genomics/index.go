package genomics

import (
	"fmt"
	"math"
)

// IndexConfig parameterizes seeding.
type IndexConfig struct {
	// K is the seed (k-mer) length.
	K int
	// Stride is the indexing distance between reference k-mers (1 =
	// index every k-mer).
	Stride int
	// QueryStride is the sampling distance between seeds extracted from
	// a read during mapping.
	QueryStride int
	// Buckets is the hash table size; the paper distributes these across
	// DRAM banks.
	Buckets int
	// MaxPositionsPerBucket caps bucket occupancy (highly repetitive
	// seeds are dropped, as minimap2 does with high-frequency minimizers).
	MaxPositionsPerBucket int
}

// DefaultIndexConfig returns a small but realistic seeding configuration.
func DefaultIndexConfig() IndexConfig {
	return IndexConfig{K: 15, Stride: 1, QueryStride: 5, Buckets: 1 << 16, MaxPositionsPerBucket: 32}
}

// entry is one hash-table record: a k-mer fingerprint (the high hash bits,
// disambiguating bucket collisions) plus the reference position.
type entry struct {
	fp  uint32
	pos int32
}

// Index is the seeding hash table: bucket -> candidate reference positions.
// All buckets share one entry array; bucket b holds
// entries[start[b]:start[b+1]], in reference order.
type Index struct {
	cfg     IndexConfig
	start   []int32
	entries []entry
}

// fingerprint extracts the collision-disambiguation bits of a k-mer hash.
func fingerprint(hash uint64) uint32 {
	return uint32(hash >> 32)
}

// BuildIndex indexes every Stride-th k-mer of the reference, keeping the
// first MaxPositionsPerBucket positions of each bucket (all of them when
// the cap is 0). It hashes the k-mers with a rolling 2-bit packing, counts
// each bucket's entries, then fills one flat table, so the build makes
// the same few allocations at every reference length.
func BuildIndex(ref *Reference, cfg IndexConfig) (*Index, error) {
	if cfg.K <= 0 || cfg.Stride <= 0 || cfg.Buckets <= 0 {
		return nil, fmt.Errorf("genomics: invalid index config %+v", cfg)
	}
	if len(ref.Seq) > math.MaxInt32 {
		return nil, fmt.Errorf("genomics: reference of %d bases exceeds the index's int32 positions", len(ref.Seq))
	}
	ix := &Index{cfg: cfg, start: make([]int32, cfg.Buckets+1)}
	hashes := kmerHashes(ref.Seq, cfg.K, cfg.Stride)

	// Count each bucket's entries into start[b+1], then turn the counts
	// into offsets.
	for _, hash := range hashes {
		b := ix.BucketOf(hash)
		if cfg.MaxPositionsPerBucket <= 0 || int(ix.start[b+1]) < cfg.MaxPositionsPerBucket {
			ix.start[b+1]++
		}
	}
	for b := 0; b < cfg.Buckets; b++ {
		ix.start[b+1] += ix.start[b]
	}

	// Fill in position order: a bucket takes positions until it holds its
	// count, so it keeps the first ones.
	ix.entries = make([]entry, ix.start[cfg.Buckets])
	next := make([]int32, cfg.Buckets)
	copy(next, ix.start)
	for i, hash := range hashes {
		b := ix.BucketOf(hash)
		if next[b] < ix.start[b+1] {
			ix.entries[next[b]] = entry{fp: fingerprint(hash), pos: int32(i * cfg.Stride)}
			next[b]++
		}
	}
	return ix, nil
}

// kmerHashes returns KmerHash of the k-mer at every stride-th position of
// seq, in position order. It packs each base into a rolling register once
// instead of re-packing k bases per position. The mask keeps the last k
// bases; from k = 32 on the shift yields 0 and the mask all ones, so the
// register keeps its last 32 bases, as KmerHash does.
func kmerHashes(seq []byte, k, stride int) []uint64 {
	if len(seq) < k {
		return nil
	}
	mask := uint64(1)<<(2*k) - 1
	hashes := make([]uint64, 0, (len(seq)-k)/stride+1)
	var packed uint64
	// at is the last base of the next k-mer to hash.
	at := k - 1
	for i, b := range seq {
		packed = (packed<<2 | encodeBase(b)) & mask
		if i == at {
			hashes = append(hashes, mixKmer(packed))
			at += stride
		}
	}
	return hashes
}

// bucket returns the entries of bucket b.
func (ix *Index) bucket(b int) []entry {
	return ix.entries[ix.start[b]:ix.start[b+1]]
}

// Config returns the index configuration.
func (ix *Index) Config() IndexConfig { return ix.cfg }

// BucketOf maps a k-mer hash to its bucket.
func (ix *Index) BucketOf(hash uint64) int {
	return int(hash % uint64(ix.cfg.Buckets))
}

// Lookup appends to dst the candidate positions recorded for this exact
// k-mer hash, in reference order, and returns the extended slice (bucket
// entries with a different fingerprint are collisions of other k-mers
// and are filtered out). It allocates only when dst lacks capacity.
func (ix *Index) Lookup(dst []int32, hash uint64) []int32 {
	fp := fingerprint(hash)
	for _, e := range ix.bucket(ix.BucketOf(hash)) {
		if e.fp == fp {
			dst = append(dst, e.pos)
		}
	}
	return dst
}

// NumBuckets returns the table size.
func (ix *Index) NumBuckets() int { return ix.cfg.Buckets }

// BucketLen returns the occupancy of bucket b.
func (ix *Index) BucketLen(b int) int {
	if b < 0 || b >= ix.cfg.Buckets {
		return 0
	}
	return int(ix.start[b+1] - ix.start[b])
}

// BankLayout places hash table buckets into DRAM banks and rows, matching
// the paper's assumption that the table interleaves across banks (Section
// 4.3: "the hash table is distributed across multiple DRAM banks").
type BankLayout struct {
	// Banks is the number of DRAM banks the table spans.
	Banks int
	// EntriesPerRow is how many buckets share one DRAM row (16 in the
	// paper's 1024-bank example).
	EntriesPerRow int
	// BaseRow is the first row of the table region in each bank.
	BaseRow int64
	// EntryBytes is the storage footprint of one bucket header.
	EntryBytes int
}

// DefaultBankLayout spreads the table over the given bank count with the
// paper's 8 KiB rows holding 16 bucket headers of 512 bytes each.
func DefaultBankLayout(banks int) BankLayout {
	return BankLayout{Banks: banks, EntriesPerRow: 16, BaseRow: 100, EntryBytes: 512}
}

// Place returns the bank, row and byte column of bucket b: buckets
// interleave bank-first (consecutive buckets land in consecutive banks,
// exploiting bank-level parallelism as modern address mappings do).
func (l BankLayout) Place(bucket int) (bank int, row int64, col int) {
	bank = bucket % l.Banks
	slot := bucket / l.Banks
	row = l.BaseRow + int64(slot/l.EntriesPerRow)
	col = (slot % l.EntriesPerRow) * l.EntryBytes
	return bank, row, col
}

// RowsUsed returns how many table rows each bank holds for the given bucket
// count: the quantity that shrinks as banks grow, making each leaked row
// more informative (Section 6.3).
func (l BankLayout) RowsUsed(buckets int) int {
	perBank := (buckets + l.Banks - 1) / l.Banks
	return (perBank + l.EntriesPerRow - 1) / l.EntriesPerRow
}
