package genomics

import "slices"

// Alignment scoring constants (match/mismatch/gap), minimap2-like defaults.
const (
	scoreMatch    = 2
	scoreMismatch = -4
	scoreGap      = -2
)

// AlignmentResult reports a banded alignment between a read and a reference
// window.
type AlignmentResult struct {
	// Score is the best global alignment score within the band.
	Score int
	// RefStart is the reference offset the alignment was anchored at.
	RefStart int
	// Cells is the number of dynamic-programming cells evaluated, which
	// drives the victim's simulated compute time.
	Cells int
}

// BandedAlign aligns read against ref[refStart : refStart+len(read)+band]
// with a diagonal band of half-width band (Needleman-Wunsch restricted to
// the band), the dynamic-programming step of Figure 6.
func BandedAlign(ref []byte, read []byte, refStart, band int) AlignmentResult {
	var rows []int
	return bandedAlign(ref, read, refStart, band, &rows)
}

// bandedAlign is BandedAlign with its two rolling rows carved from *rows,
// which it grows when they do not fit.
func bandedAlign(ref []byte, read []byte, refStart, band int, rows *[]int) AlignmentResult {
	if band < 1 {
		band = 1
	}
	n := len(read)
	if n == 0 {
		return AlignmentResult{RefStart: refStart}
	}
	// Clamp the reference window.
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
	// Two rolling rows over the reference window, banded around the
	// diagonal i (read position) == j (window position).
	*rows = slices.Grow((*rows)[:0], 2*(m+1))[:2*(m+1)]
	prev, cur := (*rows)[:m+1:m+1], (*rows)[m+1:]
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
		// Only the band is computed. Outside it, this row reads its left
		// neighbour and the next row reads its right neighbour, so only
		// those two cells are set; the rest of cur is never read.
		if lo == 1 {
			cur[0] = i * scoreGap
		} else if lo <= hi {
			cur[lo-1] = negInf
		}
		if hi < m {
			cur[hi+1] = negInf
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
	// The best end is the maximum over the last band of the final row.
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
