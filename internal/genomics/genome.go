// Package genomics implements the read-mapping substrate of the paper's
// side-channel attack (Section 4.3): a minimap2-style pipeline with k-mer
// seeding against a hash table distributed over DRAM banks, anchor chaining,
// and banded alignment. The reference genome is synthetic (the paper uses
// the human genome, which we cannot ship); the attack leaks *which hash
// table buckets the victim touches*, a property preserved exactly by a
// synthetic reference with the same table-over-banks layout.
package genomics

import (
	"fmt"

	"repro/internal/stats"
)

// Bases are the four nucleotides in 2-bit encoding order.
var Bases = []byte{'A', 'C', 'G', 'T'}

// Reference is a synthetic reference genome.
type Reference struct {
	Seq []byte
}

// NewReference generates a deterministic pseudo-random reference of the
// given length, with a fraction of tandem repeats so seeding sees realistic
// multi-hit buckets.
func NewReference(length int, seed uint64) *Reference {
	rng := stats.NewRNG(seed)
	seq := make([]byte, 0, length)
	for len(seq) < length {
		// Insert a tandem repeat roughly every ~1250 bases appended, so
		// about 10% of the genome is repetitive (multi-hit seeds exist
		// without swamping chaining).
		if rng.Bool(0.0008) && len(seq) > 200 {
			// Copy a short repeat from earlier in the sequence.
			repLen := 50 + rng.Intn(150)
			src := rng.Intn(len(seq) - repLen)
			if src < 0 {
				src = 0
			}
			end := src + repLen
			if end > len(seq) {
				end = len(seq)
			}
			seq = append(seq, seq[src:end]...)
			continue
		}
		seq = append(seq, Bases[rng.Intn(4)])
	}
	return &Reference{Seq: seq[:length]}
}

// Read is one sequencing read sampled from a reference.
type Read struct {
	Seq []byte
	// TruePos is the position the read was sampled from (ground truth
	// for mapper accuracy tests).
	TruePos int
}

// SampleReads draws n reads of readLen bases from the reference, mutating
// each base with probability mutationRate (sequencing error + variants).
// The reads share one backing array, each capped at its own length.
func SampleReads(ref *Reference, n, readLen int, mutationRate float64, seed uint64) ([]Read, error) {
	if readLen > len(ref.Seq) {
		return nil, fmt.Errorf("genomics: read length %d exceeds reference length %d", readLen, len(ref.Seq))
	}
	rng := stats.NewRNG(seed)
	reads := make([]Read, n)
	bases := make([]byte, n*readLen)
	for i := range reads {
		pos := rng.Intn(len(ref.Seq) - readLen + 1)
		seq := bases[i*readLen : (i+1)*readLen : (i+1)*readLen]
		copy(seq, ref.Seq[pos:pos+readLen])
		for j := range seq {
			if rng.Bool(mutationRate) {
				seq[j] = Bases[rng.Intn(4)]
			}
		}
		reads[i] = Read{Seq: seq, TruePos: pos}
	}
	return reads, nil
}

// encodeBase maps a nucleotide to its 2-bit code (A=0 C=1 G=2 T=3).
// Unknown characters map to 0, as real mappers do for 'N'.
func encodeBase(b byte) uint64 {
	switch b {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't':
		return 3
	default:
		return 0
	}
}

// KmerHash computes a mixed hash of the k-mer starting at seq[0:k]. It
// 2-bit-packs the bases then applies a SplitMix64-style finalizer, matching
// the "hash the seed" step of Figure 6.
func KmerHash(seq []byte, k int) uint64 {
	var packed uint64
	for i := 0; i < k && i < len(seq); i++ {
		packed = packed<<2 | encodeBase(seq[i])
	}
	return mixKmer(packed)
}

// mixKmer is KmerHash's SplitMix64 finalizer over a 2-bit-packed k-mer.
// BuildIndex's rolling hash calls it too, so the index and the mapper's
// queries hash alike.
func mixKmer(packed uint64) uint64 {
	z := packed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
