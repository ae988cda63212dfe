package genomics

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// refMapper is the Mapper as it was before plans: its Step does the k-mer
// lookups while seeding and chains and aligns each read when it ends.
// TestMapperMatchesReference holds the plan-based Mapper to it.
type refMapper struct {
	machine *sim.Machine
	core    *sim.Core
	ref     *Reference
	idx     *Index
	layout  BankLayout
	costs   Costs
	reads   []Read
	onTouch TouchFunc
	band    int

	readIdx int
	offset  int
	anchors []Anchor
	results []MapResult
	hits    []int32
	addrs   []uint64 // every PEI address, in order
}

func (v *refMapper) Done() bool { return v.readIdx >= len(v.reads) }

func (v *refMapper) Step() error {
	if v.Done() {
		return nil
	}
	read := v.reads[v.readIdx]
	cfg := v.idx.Config()

	if v.offset+cfg.K <= len(read.Seq) {
		v.core.Advance(v.costs.SeedCompute)
		hash := KmerHash(read.Seq[v.offset:], cfg.K)
		bucket := v.idx.BucketOf(hash)
		bank, row, col := v.layout.Place(bucket)
		addr := v.machine.AddrFor(bank, row, col)
		v.addrs = append(v.addrs, addr)
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

type touch struct {
	bank int
	row  int64
	at   int64
}

// planFixture returns a reference, its index and reads that cover every
// way a read can end: mapped reads, heavily mutated ones (some with no
// seed hit), one shorter than a k-mer and one of bases the reference never
// holds.
func planFixture(t *testing.T) (*Reference, *Index, []Read) {
	t.Helper()
	ref := NewReference(1<<16, 7)
	idx, err := BuildIndex(ref, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads, err := SampleReads(ref, 40, 150, 0.02, 8)
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := SampleReads(ref, 20, 150, 0.45, 9)
	if err != nil {
		t.Fatal(err)
	}
	reads = append(reads, mutated...)
	reads = append(reads,
		Read{Seq: []byte("ACGTACGTAC"), TruePos: 3},
		Read{Seq: []byte(fmt.Sprintf("%0150d", 0)), TruePos: 5})
	return ref, idx, reads
}

// twinMachine builds one of two identical machines with the given banks.
func twinMachine(t *testing.T, banks int) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.DRAM = cfg.DRAM.WithBanks(banks)
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMapperMatchesReference steps the plan-based Mapper and refMapper on
// twin machines and requires, after every step, the same clock, PEI
// addresses, touches and results. The plan's entries are computed by the
// Mapper itself, by a Prefetch running beside it (one entry of which the
// Mapper must wait for), and by a Mapper at another bank count sharing the
// plan.
func TestMapperMatchesReference(t *testing.T) {
	ref, idx, reads := planFixture(t)
	for _, tc := range []struct {
		name string
		// before runs while the Mapper under test is built and may fill
		// plan entries; it returns a func to call once the Mapper is done.
		before func(t *testing.T, plan *Plan) func()
	}{
		{"self", func(*testing.T, *Plan) func() { return func() {} }},
		{"prefetched", func(t *testing.T, plan *Plan) func() {
			// Claim read 3's entry now and publish it only once the
			// Mapper has asked for it, so the Mapper must wait.
			const held = 3
			if !plan.state[held].CompareAndSwap(entryUnclaimed, entryComputing) {
				t.Fatal("entry already claimed")
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for plan.asked.Load() <= held {
					runtime.Gosched()
				}
				var s planScratch
				plan.compute(held, &s)
				plan.state[held].Store(entryPublished)
			}()
			go func() {
				defer wg.Done()
				plan.Prefetch()
			}()
			// Let Prefetch fill its lookahead before the Mapper starts;
			// it keeps going beside the Mapper from there.
			for plan.state[planLookahead-1].Load() != entryPublished {
				runtime.Gosched()
			}
			return func() {
				plan.Stop()
				wg.Wait()
			}
		}},
		{"shared", func(t *testing.T, plan *Plan) func() {
			// A Mapper at 64 banks maps the first 30 reads first.
			m := twinMachine(t, 64)
			other, err := NewMapper(m, m.Core(2), plan, DefaultBankLayout(64), DefaultCosts())
			if err != nil {
				t.Fatal(err)
			}
			for len(other.Results()) < 30 {
				if err := other.Step(); err != nil {
					t.Fatal(err)
				}
			}
			return func() {}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const banks = 16
			plan := NewPlan(ref, idx, reads)
			done := tc.before(t, plan)
			mRef, mPlan := twinMachine(t, banks), twinMachine(t, banks)
			want := &refMapper{
				machine: mRef, core: mRef.Core(2), ref: ref, idx: idx,
				layout: DefaultBankLayout(banks), costs: DefaultCosts(), reads: reads, band: 16,
			}
			got, err := NewMapper(mPlan, mPlan.Core(2), plan, DefaultBankLayout(banks), DefaultCosts())
			if err != nil {
				t.Fatal(err)
			}
			var wantTouches, gotTouches []touch
			want.onTouch = func(bank int, row int64, at int64) { wantTouches = append(wantTouches, touch{bank, row, at}) }
			got.SetTouchFunc(func(bank int, row int64, at int64) { gotTouches = append(gotTouches, touch{bank, row, at}) })
			var gotAddrs []uint64
			for step := 0; !want.Done(); step++ {
				if got.Done() {
					t.Fatalf("step %d: Mapper done before the reference", step)
				}
				if _, _, addr, ok := got.probe(); ok {
					gotAddrs = append(gotAddrs, addr)
				}
				if err := want.Step(); err != nil {
					t.Fatal(err)
				}
				if err := got.Step(); err != nil {
					t.Fatal(err)
				}
				switch {
				case got.Now() != want.core.Now():
					t.Fatalf("step %d: clock %d, reference %d", step, got.Now(), want.core.Now())
				case !slices.Equal(gotAddrs, want.addrs):
					t.Fatalf("step %d: PEI addresses differ from the reference's", step)
				case !slices.Equal(gotTouches, wantTouches):
					t.Fatalf("step %d: touches differ from the reference's", step)
				case !slices.Equal(got.Results(), want.results):
					t.Fatalf("step %d: results %v, reference %v", step, got.Results(), want.results)
				}
			}
			done()
			if !got.Done() {
				t.Fatal("Mapper not done with the reference")
			}
			if !slices.ContainsFunc(want.results, func(r MapResult) bool { return r.MappedPos < 0 }) {
				t.Fatal("no read went unaligned: the fixture misses that path")
			}
			if tc.name == "prefetched" && plan.Prefetched() == 0 {
				t.Fatal("Prefetch computed no entry")
			}
		})
	}
}

// TestPlanPrefetchStaysAhead requires Prefetch to compute at most
// planLookahead entries past the furthest read asked for, to return on
// Stop, and to compute nothing when it starts after Stop.
func TestPlanPrefetchStaysAhead(t *testing.T) {
	ref, idx, reads := planFixture(t)
	plan := NewPlan(ref, idx, reads)
	var s planScratch
	plan.entry(4, &s) // asked is now 5
	finished := make(chan struct{})
	go func() {
		plan.Prefetch()
		close(finished)
	}()
	// Prefetch claims up to read 5+16-1 = 20, then waits.
	for plan.state[5+planLookahead-1].Load() != entryPublished {
		runtime.Gosched()
	}
	plan.Stop()
	<-finished
	for i := range reads {
		claimed := plan.state[i].Load() != entryUnclaimed
		if want := i < 5+planLookahead; claimed != want {
			t.Fatalf("entry %d claimed = %v, want %v", i, claimed, want)
		}
	}
	if got, want := plan.Prefetched(), 5+planLookahead-1; got != want {
		t.Fatalf("Prefetch computed %d entries, want %d", got, want)
	}

	late := NewPlan(ref, idx, reads)
	late.Stop()
	late.Prefetch()
	if late.Prefetched() != 0 {
		t.Fatalf("Prefetch after Stop computed %d entries", late.Prefetched())
	}
}
