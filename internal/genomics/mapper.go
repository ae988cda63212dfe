package genomics

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrNoReads indicates the mapper was constructed without work to do.
var ErrNoReads = errors.New("genomics: no reads to map")

// Costs models the victim's per-step compute time (cycles) around its
// simulated memory accesses.
type Costs struct {
	// SeedCompute is the cost of extracting and hashing one k-mer.
	SeedCompute int64
	// ChainPerAnchor is the chaining cost per collected anchor.
	ChainPerAnchor int64
	// AlignPerCell is the alignment cost per DP cell.
	AlignPerCell int64
}

// DefaultCosts returns calibrated victim compute costs.
func DefaultCosts() Costs {
	return Costs{SeedCompute: 60, ChainPerAnchor: 12, AlignPerCell: 2}
}

// MapResult is the mapper's answer for one read.
type MapResult struct {
	TruePos int
	// MappedPos is the reference position the pipeline chose (-1 when the
	// read could not be placed).
	MappedPos int
	Score     int
}

// Correct reports whether the mapping landed within tolerance of the truth.
func (r MapResult) Correct(tolerance int) bool {
	if r.MappedPos < 0 {
		return false
	}
	d := r.MappedPos - r.TruePos
	if d < 0 {
		d = -d
	}
	return d <= tolerance
}

// TouchFunc observes every hash-table row the victim's seeding step
// activates: (bank, row, completion time). The side-channel harness uses it
// as ground truth.
type TouchFunc func(bank int, row int64, at int64)

// Mapper is the victim process of Section 4.3: a read mapper whose seeding
// step probes a bank-distributed hash table with PIM-enabled instructions.
// It advances one seed probe per Step so a co-running attacker can be
// interleaved at simulated-time granularity.
type Mapper struct {
	machine *sim.Machine
	core    *sim.Core
	ref     *Reference
	idx     *Index
	layout  BankLayout
	costs   Costs
	reads   []Read
	onTouch TouchFunc

	band int

	// Iteration state.
	readIdx int
	offset  int
	anchors []Anchor
	results []MapResult
	hits    []int32 // Lookup's buffer, reused across seeding probes
}

// NewMapper builds the victim over an existing machine. core selects which
// simulated core the victim occupies.
func NewMapper(
	machine *sim.Machine,
	core *sim.Core,
	ref *Reference,
	idx *Index,
	layout BankLayout,
	reads []Read,
	costs Costs,
) (*Mapper, error) {
	if len(reads) == 0 {
		return nil, ErrNoReads
	}
	if layout.Banks > machine.Device().NumBanks() {
		return nil, fmt.Errorf("genomics: layout spans %d banks but device has %d",
			layout.Banks, machine.Device().NumBanks())
	}
	return &Mapper{
		machine: machine,
		core:    core,
		ref:     ref,
		idx:     idx,
		layout:  layout,
		costs:   costs,
		reads:   reads,
		band:    16,
	}, nil
}

// SetTouchFunc installs the ground-truth observer.
func (v *Mapper) SetTouchFunc(fn TouchFunc) { v.onTouch = fn }

// Now returns the victim's simulated clock.
func (v *Mapper) Now() int64 { return v.core.Now() }

// Done reports whether all reads are mapped.
func (v *Mapper) Done() bool { return v.readIdx >= len(v.reads) }

// Results returns the mapping results so far.
func (v *Mapper) Results() []MapResult { return v.results }

// Layout returns the table's bank layout.
func (v *Mapper) Layout() BankLayout { return v.layout }

// IndexBuckets returns the size of the seeding hash table.
func (v *Mapper) IndexBuckets() int { return v.idx.NumBuckets() }

// Step advances the victim by one seeding probe: it hashes the next k-mer,
// offloads the hash-table lookup to the PiM system (activating the bucket's
// DRAM row, which is what the attacker observes), and collects anchors. At
// the end of a read it runs chaining and banded alignment as pure compute.
func (v *Mapper) Step() error {
	if v.Done() {
		return nil
	}
	read := v.reads[v.readIdx]
	cfg := v.idx.Config()

	if v.offset+cfg.K <= len(read.Seq) {
		// Seeding: hash the k-mer and probe the table near memory.
		v.core.Advance(v.costs.SeedCompute)
		hash := KmerHash(read.Seq[v.offset:], cfg.K)
		bucket := v.idx.BucketOf(hash)
		bank, row, col := v.layout.Place(bucket)
		addr := v.machine.AddrFor(bank, row, col)
		if _, err := v.core.PEIAccess(addr); err != nil {
			return fmt.Errorf("seeding probe: %w", err)
		}
		if v.onTouch != nil {
			v.onTouch(bank, row, v.core.Now())
		}
		v.hits = v.idx.Lookup(v.hits[:0], hash)
		for _, pos := range v.hits {
			v.anchors = append(v.anchors, Anchor{ReadPos: v.offset, RefPos: int(pos)})
		}
		v.offset += cfg.QueryStride
		return nil
	}

	// Read finished: chain and align (compute-only on the victim core).
	v.core.Advance(int64(len(v.anchors)) * v.costs.ChainPerAnchor)
	chain := ChainAnchors(v.anchors)
	result := MapResult{TruePos: read.TruePos, MappedPos: -1}
	if chain.Score > 0 {
		aln := BandedAlign(v.ref.Seq, read.Seq, chain.RefStart, v.band)
		v.core.Advance(int64(aln.Cells) * v.costs.AlignPerCell)
		result.MappedPos = aln.RefStart
		result.Score = aln.Score
	}
	v.results = append(v.results, result)
	v.anchors = v.anchors[:0]
	v.offset = 0
	v.readIdx++
	return nil
}

// Run maps everything without an attacker (used by tests and examples).
func (v *Mapper) Run() error {
	for !v.Done() {
		if err := v.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Accuracy returns the fraction of reads mapped within tolerance.
func (v *Mapper) Accuracy(tolerance int) float64 {
	if len(v.results) == 0 {
		return 0
	}
	correct := 0
	for _, r := range v.results {
		if r.Correct(tolerance) {
			correct++
		}
	}
	return float64(correct) / float64(len(v.results))
}
