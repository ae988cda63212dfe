package genomics

import (
	"cmp"
	"slices"
)

// Anchor is one seed hit: the read offset and the reference position where
// the seed's k-mer occurs.
type Anchor struct {
	ReadPos int
	RefPos  int
}

// Chain is a scored set of co-linear anchors, the output of the chaining
// step (Figure 6's step between seeding and alignment; the paper assumes
// chaining is part of the offloaded pipeline, Section 5.1).
type Chain struct {
	Anchors []Anchor
	Score   int
	// RefStart estimates where the read begins in the reference.
	RefStart int
}

// chainGapLimit bounds the reference/read gap between chained anchors.
const chainGapLimit = 500

// ChainAnchors finds the best co-linear chain through the anchors using the
// classic O(n^2) dynamic program over anchors sorted by reference position
// (minimap2's chaining, without its heuristics). It returns a zero-score
// chain when no anchors exist.
func ChainAnchors(anchors []Anchor) Chain {
	if len(anchors) == 0 {
		return Chain{}
	}
	sorted := make([]Anchor, len(anchors))
	copy(sorted, anchors)
	slices.SortFunc(sorted, func(a, b Anchor) int {
		if c := cmp.Compare(a.RefPos, b.RefPos); c != 0 {
			return c
		}
		return cmp.Compare(a.ReadPos, b.ReadPos)
	})

	score := make([]int, len(sorted))
	prev := make([]int, len(sorted))
	best := 0
	for i := range sorted {
		score[i] = 1
		prev[i] = -1
		for j := i - 1; j >= 0; j-- {
			refGap := sorted[i].RefPos - sorted[j].RefPos
			readGap := sorted[i].ReadPos - sorted[j].ReadPos
			if refGap > chainGapLimit {
				break // sorted by RefPos: no earlier anchor can chain
			}
			if readGap <= 0 || refGap <= 0 {
				continue
			}
			diagDrift := refGap - readGap
			if diagDrift < 0 {
				diagDrift = -diagDrift
			}
			if diagDrift > 50 {
				continue
			}
			if s := score[j] + 1; s > score[i] {
				score[i] = s
				prev[i] = j
			}
		}
		if score[i] > score[best] {
			best = i
		}
	}

	// Backtrack the best chain.
	var chain []Anchor
	for i := best; i >= 0; i = prev[i] {
		chain = append(chain, sorted[i])
	}
	// Reverse into read order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	head := chain[0]
	return Chain{
		Anchors:  chain,
		Score:    score[best],
		RefStart: head.RefPos - head.ReadPos,
	}
}
