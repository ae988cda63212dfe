package core

import (
	"repro/internal/cacti"
	"repro/internal/sim"
)

// Primitive identifies one cache-bypass attack primitive from Table 1.
type Primitive int

const (
	// PrimitiveSpecialized is clflush-style specialized instructions.
	PrimitiveSpecialized Primitive = iota + 1
	// PrimitiveEvictionSets is cache eviction sets.
	PrimitiveEvictionSets
	// PrimitiveDMA is the (R)DMA engine.
	PrimitiveDMA
	// PrimitiveNonTemporal is non-temporal memory hints (movnti).
	PrimitiveNonTemporal
	// PrimitivePiM is PiM operations (the paper's contribution).
	PrimitivePiM
)

// String implements fmt.Stringer.
func (p Primitive) String() string {
	switch p {
	case PrimitiveSpecialized:
		return "Specialized Instructions"
	case PrimitiveEvictionSets:
		return "Eviction Sets"
	case PrimitiveDMA:
		return "DMA/RDMA"
	case PrimitiveNonTemporal:
		return "Non-temporal Hints"
	case PrimitivePiM:
		return "PiM Operations"
	default:
		return "unknown"
	}
}

// PrimitiveProperties is one row of Table 1, extended with the per-request
// latency our simulator measures for the primitive (cycles to place one
// request into a DRAM row buffer).
type PrimitiveProperties struct {
	Primitive Primitive
	// NoCacheLookup: the primitive avoids cache lookup overhead.
	NoCacheLookup bool
	// NoExcessiveMemAccesses: it avoids issuing many extra requests.
	NoExcessiveMemAccesses bool
	// TimingDetectable: the resulting timing difference is fine-grained
	// enough to detect row-buffer states.
	TimingDetectable bool
	// ISAGuaranteed: the ISA guarantees the bypass works (true/false);
	// NotApplicable marks the DMA row's "N/A".
	ISAGuaranteed bool
	NotApplicable bool
	// MeasuredLatency is the simulated cost of one direct-memory request
	// via this primitive.
	MeasuredLatency int64
}

// Table1 reproduces the paper's attack-primitive comparison, attaching the
// per-request latency each primitive exhibits in the simulated system so
// the qualitative matrix is backed by quantitative evidence.
func Table1(m *sim.Machine) []PrimitiveProperties {
	t := m.Config().DRAM.Timing
	costs := m.Config().Costs
	llcMB := float64(m.Config().LLCBytes) / float64(1<<20)
	memLat := t.EmptyLatency() + m.Config().Mem.RequestOverhead

	flushCost := m.Core(0).Hierarchy().CleanFlushLatency()
	evictCost := cacti.EvictionLatency(llcMB, m.Config().LLCWays, memLat, costs.EvictionMLP)

	return []PrimitiveProperties{
		{
			Primitive:              PrimitiveSpecialized,
			NoCacheLookup:          false, // clflush probes the LLC
			NoExcessiveMemAccesses: true,
			TimingDetectable:       true,
			ISAGuaranteed:          true,
			MeasuredLatency:        flushCost + memLat,
		},
		{
			Primitive:              PrimitiveEvictionSets,
			NoCacheLookup:          false,
			NoExcessiveMemAccesses: false, // N loads per eviction
			TimingDetectable:       true,
			ISAGuaranteed:          false, // replacement policy may defeat it
			MeasuredLatency:        evictCost + memLat,
		},
		{
			Primitive:              PrimitiveDMA,
			NoCacheLookup:          true,
			NoExcessiveMemAccesses: true,
			TimingDetectable:       false, // software stack swamps 70-cycle differences
			NotApplicable:          true,
			MeasuredLatency:        costs.DMASyscall + costs.DMASetup + memLat,
		},
		{
			Primitive:              PrimitiveNonTemporal,
			NoCacheLookup:          false,
			NoExcessiveMemAccesses: true,
			TimingDetectable:       true,
			ISAGuaranteed:          false, // implementation-defined buffering
			MeasuredLatency:        flushCost + memLat,
		},
		{
			Primitive:              PrimitivePiM,
			NoCacheLookup:          true,
			NoExcessiveMemAccesses: true,
			TimingDetectable:       true,
			ISAGuaranteed:          true,
			MeasuredLatency:        m.PEI().Costs().IssueCost + m.PEI().Costs().PEIOverhead + memLat,
		},
	}
}
