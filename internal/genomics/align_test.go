package genomics

import (
	"testing"

	"repro/internal/stats"
)

// fullResetBandedAlign is BandedAlign as it stood before the band-only
// reset: every row sets all m+1 cells to −∞ before computing its band.
// TestBandedAlignMatchesFullReset holds BandedAlign to it.
func fullResetBandedAlign(ref []byte, read []byte, refStart, band int) AlignmentResult {
	if band < 1 {
		band = 1
	}
	n := len(read)
	if n == 0 {
		return AlignmentResult{RefStart: refStart}
	}
	if refStart < 0 {
		refStart = 0
	}
	m := n + band
	if refStart+m > len(ref) {
		m = len(ref) - refStart
	}
	if m <= 0 {
		return AlignmentResult{RefStart: refStart}
	}
	window := ref[refStart : refStart+m]

	const negInf = -1 << 30
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := range prev {
		if j <= band {
			prev[j] = j * scoreGap
		} else {
			prev[j] = negInf
		}
	}
	cells := 0
	for i := 1; i <= n; i++ {
		lo := i - band
		if lo < 1 {
			lo = 1
		}
		hi := i + band
		if hi > m {
			hi = m
		}
		for j := 0; j <= m; j++ {
			cur[j] = negInf
		}
		if lo == 1 {
			cur[0] = i * scoreGap
		}
		for j := lo; j <= hi; j++ {
			cells++
			sub := scoreMismatch
			if window[j-1] == read[i-1] {
				sub = scoreMatch
			}
			bestScore := prev[j-1] + sub
			if s := prev[j] + scoreGap; s > bestScore {
				bestScore = s
			}
			if s := cur[j-1] + scoreGap; s > bestScore {
				bestScore = s
			}
			cur[j] = bestScore
		}
		prev, cur = cur, prev
	}
	bestScore := negInf
	for j := n - band; j <= n+band; j++ {
		if j < 0 || j > m {
			continue
		}
		if prev[j] > bestScore {
			bestScore = prev[j]
		}
	}
	return AlignmentResult{Score: bestScore, RefStart: refStart, Cells: cells}
}

// mutatedRead copies ref[start:start+n] with about one base in ten
// substituted, deleted or followed by an inserted base.
func mutatedRead(ref []byte, start, n int, rng *stats.RNG) []byte {
	read := make([]byte, 0, n+n/10)
	for _, b := range ref[start : start+n] {
		switch rng.Intn(30) {
		case 0:
			read = append(read, Bases[rng.Intn(4)])
		case 1: // deletion
		case 2:
			read = append(read, b, Bases[rng.Intn(4)])
		default:
			read = append(read, b)
		}
	}
	return read
}

// TestBandedAlignMatchesFullReset requires the band-only reset to give the
// full reset's score, start and cell count, across bands narrower than,
// equal to and wider than the read, windows at the start, middle and
// clipped end of the reference, and empty and short reads.
func TestBandedAlignMatchesFullReset(t *testing.T) {
	ref := NewReference(4096, 3).Seq
	rng := stats.NewRNG(5)
	for _, n := range []int{0, 1, 2, 7, 40, 150} { // 150: the victim's read length
		exact := ref[1000 : 1000+n]
		noisy := mutatedRead(ref, 2000, n, rng)
		for _, band := range []int{-1, 0, 1, 2, 16, n, n + 3, 1000} {
			for _, start := range []int{-5, 0, 1, 1000, 2000, len(ref) - n - band, len(ref) - n, len(ref) - n/2, len(ref) - 1, len(ref), len(ref) + 10} {
				for name, read := range map[string][]byte{"exact": exact, "noisy": noisy} {
					got := BandedAlign(ref, read, start, band)
					want := fullResetBandedAlign(ref, read, start, band)
					if got != want {
						t.Fatalf("%s read of %d bases at %d, band %d: %+v, full reset %+v",
							name, len(read), start, band, got, want)
					}
				}
			}
		}
	}
}
