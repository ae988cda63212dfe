package genomics

import (
	"runtime"
	"sync/atomic"
)

// planLookahead is how many reads past the furthest one any Mapper has
// asked for Prefetch may compute. The attack maps only as many reads as
// its sweeps last, so computing further ahead would be wasted.
const planLookahead = 16

// alignBand is the half-width of the victim's banded alignment.
const alignBand = 16

// Entry states: unclaimed, claimed by the goroutine computing it, and
// published for every reader.
const (
	entryUnclaimed uint32 = iota
	entryComputing
	entryPublished
)

// Plan holds, for each read, the part of its mapping that never touches
// the machine: the anchors its seeds find, the best chain through them and
// the banded alignment at the chain's start. A Mapper still seeds on its
// simulated core, hashing each k-mer and probing its bucket with a PEI;
// only the k-mer lookups, chaining and alignment come from the plan.
//
// Mappers over different machines may share one Plan from several
// goroutines: whichever first needs a read's entry computes it, once, and
// the others wait for it to be published. Prefetch computes entries ahead
// of the Mappers on a goroutine of its own. A Plan makes the same few
// allocations however many reads it covers; each goroutine computes
// entries into scratch it owns.
type Plan struct {
	ref     *Reference
	idx     *Index
	reads   []Read
	entries []planEntry
	state   []atomic.Uint32
	// asked is one past the furthest read any Mapper has asked for.
	asked atomic.Int64
	// wake holds a token whenever asked has grown since Prefetch last
	// looked, and stop is closed by Stop.
	wake chan struct{}
	stop chan struct{}
	// prefetched counts the entries Prefetch computed.
	prefetched int
}

// planEntry is one read's machine-free mapping work.
type planEntry struct {
	// anchors is the number of seed hits, which chaining costs per. A read
	// without any is not aligned.
	anchors int
	// mappedPos, score and cells are the alignment's start, score and
	// dynamic-programming cells.
	mappedPos, score, cells int
}

// planScratch is the buffers one goroutine computes entries in.
type planScratch struct {
	hits    []int32
	anchors []Anchor
	chain   chainScratch
	rows    []int
}

// NewPlan returns an empty plan for mapping reads against ref with idx.
func NewPlan(ref *Reference, idx *Index, reads []Read) *Plan {
	return &Plan{
		ref:     ref,
		idx:     idx,
		reads:   reads,
		entries: make([]planEntry, len(reads)),
		state:   make([]atomic.Uint32, len(reads)),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
}

// entry returns read i's entry, computing it into s if no goroutine has
// claimed it, and records that a Mapper asked for it.
func (p *Plan) entry(i int, s *planScratch) *planEntry {
	p.ask(i)
	if p.state[i].Load() != entryPublished && !p.claim(i, s) {
		// Another goroutine is computing it, which takes tens of
		// microseconds: yield until it is published.
		for p.state[i].Load() != entryPublished {
			runtime.Gosched()
		}
	}
	return &p.entries[i]
}

// claim computes and publishes read i's entry if it is unclaimed, and
// reports whether it did.
func (p *Plan) claim(i int, s *planScratch) bool {
	if !p.state[i].CompareAndSwap(entryUnclaimed, entryComputing) {
		return false
	}
	p.compute(i, s)
	p.state[i].Store(entryPublished)
	return true
}

// ask raises asked past read i and, if it grew, wakes Prefetch.
func (p *Plan) ask(i int) {
	for {
		a := p.asked.Load()
		if int64(i) < a {
			return
		}
		if p.asked.CompareAndSwap(a, int64(i)+1) {
			break
		}
	}
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Prefetch computes entries in read order, each one no Mapper has
// claimed, staying at most planLookahead reads ahead of the furthest read
// a Mapper has asked for. It returns once every entry is claimed or Stop
// has been called; a Prefetch that starts after Stop computes nothing.
func (p *Plan) Prefetch() {
	var s planScratch
	for i := range p.reads {
		for int64(i) >= p.asked.Load()+planLookahead {
			select {
			case <-p.wake:
			case <-p.stop:
				return
			}
		}
		select {
		case <-p.stop:
			return
		default:
		}
		if p.claim(i, &s) {
			p.prefetched++
		}
	}
}

// Stop ends Prefetch. Call it once, when no Mapper will ask for more.
func (p *Plan) Stop() { close(p.stop) }

// Prefetched reports how many entries Prefetch computed. Read it only
// after Prefetch has returned.
func (p *Plan) Prefetched() int { return p.prefetched }

// compute fills read i's entry: it looks up every seed's k-mer, as the
// Mapper's seeding probes visit them, chains the anchors and aligns the
// read at the best chain's start.
func (p *Plan) compute(i int, s *planScratch) {
	read := p.reads[i]
	cfg := p.idx.Config()
	s.anchors = s.anchors[:0]
	for off := 0; off+cfg.K <= len(read.Seq); off += cfg.QueryStride {
		s.hits = p.idx.Lookup(s.hits[:0], KmerHash(read.Seq[off:], cfg.K))
		for _, pos := range s.hits {
			s.anchors = append(s.anchors, Anchor{ReadPos: off, RefPos: int(pos)})
		}
	}
	e := planEntry{anchors: len(s.anchors)}
	if best := s.chain.best(s.anchors); best >= 0 {
		head := best
		for s.chain.prev[head] >= 0 {
			head = s.chain.prev[head]
		}
		start := s.anchors[head].RefPos - s.anchors[head].ReadPos
		aln := bandedAlign(p.ref.Seq, read.Seq, start, alignBand, &s.rows)
		e.mappedPos, e.score, e.cells = aln.RefStart, aln.Score, aln.Cells
	}
	p.entries[i] = e
}
