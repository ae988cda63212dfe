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
// interleaved at simulated-time granularity. Its k-mer lookups, chaining
// and alignment, which never touch the machine, come from a Plan that
// Mappers on other machines may share.
type Mapper struct {
	machine *sim.Machine
	core    *sim.Core
	plan    *Plan
	layout  BankLayout
	costs   Costs
	onTouch TouchFunc

	// Iteration state.
	readIdx int
	offset  int
	results []MapResult
	scratch planScratch // where this Mapper computes plan entries
}

// NewMapper builds the victim over an existing machine, mapping the plan's
// reads. core selects which simulated core the victim occupies.
func NewMapper(
	machine *sim.Machine,
	core *sim.Core,
	plan *Plan,
	layout BankLayout,
	costs Costs,
) (*Mapper, error) {
	if len(plan.reads) == 0 {
		return nil, ErrNoReads
	}
	if layout.Banks > machine.Device().NumBanks() {
		return nil, fmt.Errorf("genomics: layout spans %d banks but device has %d",
			layout.Banks, machine.Device().NumBanks())
	}
	return &Mapper{
		machine: machine,
		core:    core,
		plan:    plan,
		layout:  layout,
		costs:   costs,
	}, nil
}

// SetTouchFunc installs the ground-truth observer.
func (v *Mapper) SetTouchFunc(fn TouchFunc) { v.onTouch = fn }

// Now returns the victim's simulated clock.
func (v *Mapper) Now() int64 { return v.core.Now() }

// Done reports whether all reads are mapped.
func (v *Mapper) Done() bool { return v.readIdx >= len(v.plan.reads) }

// Results returns the mapping results so far.
func (v *Mapper) Results() []MapResult { return v.results }

// Layout returns the table's bank layout.
func (v *Mapper) Layout() BankLayout { return v.layout }

// IndexBuckets returns the size of the seeding hash table.
func (v *Mapper) IndexBuckets() int { return v.plan.idx.NumBuckets() }

// probe returns the bank, row and address the next seeding probe
// activates, or ok false when the current read has no seed left.
func (v *Mapper) probe() (bank int, row int64, addr uint64, ok bool) {
	seq := v.plan.reads[v.readIdx].Seq
	cfg := v.plan.idx.Config()
	if v.offset+cfg.K > len(seq) {
		return 0, 0, 0, false
	}
	bucket := v.plan.idx.BucketOf(KmerHash(seq[v.offset:], cfg.K))
	bank, row, col := v.layout.Place(bucket)
	return bank, row, v.machine.AddrFor(bank, row, col), true
}

// Step advances the victim by one seeding probe: it hashes the next k-mer
// and offloads the hash-table lookup to the PiM system, activating the
// bucket's DRAM row, which is what the attacker observes. At the end of a
// read it charges chaining and banded alignment as pure compute, at the
// costs of the read's plan entry.
func (v *Mapper) Step() error {
	if v.Done() {
		return nil
	}
	if bank, row, addr, ok := v.probe(); ok {
		v.core.Advance(v.costs.SeedCompute)
		if _, err := v.core.PEIAccess(addr); err != nil {
			return fmt.Errorf("seeding probe: %w", err)
		}
		if v.onTouch != nil {
			v.onTouch(bank, row, v.core.Now())
		}
		v.offset += v.plan.idx.Config().QueryStride
		return nil
	}

	// Read finished: chain and align (compute-only on the victim core).
	e := v.plan.entry(v.readIdx, &v.scratch)
	v.core.Advance(int64(e.anchors) * v.costs.ChainPerAnchor)
	result := MapResult{TruePos: v.plan.reads[v.readIdx].TruePos, MappedPos: -1}
	if e.anchors > 0 {
		v.core.Advance(int64(e.cells) * v.costs.AlignPerCell)
		result.MappedPos = e.mappedPos
		result.Score = e.score
	}
	v.results = append(v.results, result)
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
