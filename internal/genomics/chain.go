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
	var cs chainScratch
	best := cs.best(sorted)

	// Backtrack the best chain.
	var chain []Anchor
	for i := best; i >= 0; i = cs.prev[i] {
		chain = append(chain, sorted[i])
	}
	// Reverse into read order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	head := chain[0]
	return Chain{
		Anchors:  chain,
		Score:    cs.score[best],
		RefStart: head.RefPos - head.ReadPos,
	}
}

// chainScratch holds the chaining program's per-anchor scores and
// predecessors, reused from one call of best to the next.
type chainScratch struct {
	score, prev []int
}

// best sorts anchors in place by reference position, then read position,
// runs the chaining program over them and returns the index of the best
// chain's last anchor, or -1 when there are none. Following prev from it
// visits the chain back to front; score holds each anchor's chain length.
func (cs *chainScratch) best(anchors []Anchor) int {
	if len(anchors) == 0 {
		return -1
	}
	slices.SortFunc(anchors, func(a, b Anchor) int {
		if c := cmp.Compare(a.RefPos, b.RefPos); c != 0 {
			return c
		}
		return cmp.Compare(a.ReadPos, b.ReadPos)
	})
	cs.score = slices.Grow(cs.score[:0], len(anchors))[:len(anchors)]
	cs.prev = slices.Grow(cs.prev[:0], len(anchors))[:len(anchors)]
	score, prev := cs.score, cs.prev
	best := 0
	for i := range anchors {
		score[i] = 1
		prev[i] = -1
		for j := i - 1; j >= 0; j-- {
			refGap := anchors[i].RefPos - anchors[j].RefPos
			readGap := anchors[i].ReadPos - anchors[j].ReadPos
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
	return best
}
