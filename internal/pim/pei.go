// Package pim models the two Processing-in-Memory substrates the paper's
// attacks exploit: PIM-Enabled Instructions (PEI, Ahn et al. ISCA'15) — a
// processing-near-memory design with per-bank computation units and a
// locality-monitoring dispatch unit — and RowClone (Seshadri et al.
// MICRO'13) — a processing-using-memory bulk copy primitive with masked
// multi-bank dispatch.
package pim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/stats"
)

// Fixed counter IDs for the PEI engine's dispatch statistics, in the slot
// order passed to stats.NewFixed in NewPEIEngine.
const (
	CounterHostSide stats.CounterID = iota
	CounterMemorySide
)

// PEICosts collects the software/uncore cost constants of the PEI path.
type PEICosts struct {
	// IssueCost is the core-side cost of dispatching one synchronous PEI
	// (operand packing, PMU lookup, uncore hop).
	IssueCost int64 `json:"issue_cost"`
	// AsyncIssueCost is the core-side cost of a fire-and-forget PEI,
	// which carries operand data and write semantics and therefore pays
	// a heavier dispatch than a read-return PEI.
	AsyncIssueCost int64 `json:"async_issue_cost"`
	// PEIOverhead is the additional latency of executing a PEI in a
	// memory-side PCU (3 cycles in the paper, after Ahn et al.).
	PEIOverhead int64 `json:"pei_overhead"`
	// HostExtra is the extra cost when the PMU routes the PEI to the
	// host-side PCU (it then goes through the cache hierarchy).
	HostExtra int64 `json:"host_extra"`
}

// DefaultPEICosts returns the constants calibrated to the paper's IMPACT-PnM
// throughput (8.2 Mb/s); TestRowBufferGapNearPaper in internal/figures
// holds the measured rate inside a recorded band.
func DefaultPEICosts() PEICosts {
	return PEICosts{IssueCost: 25, AsyncIssueCost: 45, PEIOverhead: 3, HostExtra: 5}
}

// PEIResult describes one executed PEI.
type PEIResult struct {
	// Latency is the core-observed round-trip latency for synchronous
	// execution, or the issue cost for asynchronous execution.
	Latency int64
	// CompletedAt is when the memory-side operation finishes (equals the
	// issue completion for host-side execution).
	CompletedAt int64
	// NearMemory reports whether the PMU dispatched the PEI to a
	// memory-side PCU.
	NearMemory bool
	// Outcome is the DRAM row-buffer outcome for memory-side execution.
	Outcome dram.Outcome
}

// LocalityMonitor models the PEI Management Unit's locality monitor: a small
// tag cache of recently touched cache blocks. A hit means the data is likely
// cached, so the PEI executes host-side; a miss routes it near memory. The
// IMPACT attackers deliberately touch fresh cache lines each batch to force
// memory-side execution, so a full monitor evicts on nearly every PEI.
//
// Replacement is least recently used: a miss on a full monitor evicts the
// line whose last touch is oldest, and a hit refreshes its line. Observe
// does O(1) expected work and allocates nothing. Each tracked line owns a
// node of a fixed array, threaded on a circular recency list whose
// sentinel is node 0. An open-addressed index with at least twice as many
// buckets as lines maps a tag to its node. Removing a tag shifts the rest
// of its probe run back instead of leaving a tombstone, so probe runs stay
// short however long the monitor churns.
type LocalityMonitor struct {
	nodes []lruNode // nodes[0] is the sentinel; cap is the line capacity + 1
	index []int32   // bucket → node, 0 when empty; a power-of-two length
	shift uint      // 64 - log2(len(index)), for Fibonacci hashing
}

// lruNode is one tracked cache line on the recency list. From the
// sentinel, older leads to the most recently touched line and newer to
// the least recently touched one.
type lruNode struct {
	tag          uint64
	newer, older int32
}

// NewLocalityMonitor returns a monitor tracking up to max cache-line tags.
// It always tracks at least one line, so max < 1 behaves like 1.
func NewLocalityMonitor(max int) *LocalityMonitor {
	lines := 1
	if max > 1 {
		lines = max
	}
	buckets := 2
	for buckets < 2*lines {
		buckets <<= 1
	}
	return &LocalityMonitor{
		nodes: make([]lruNode, 1, lines+1),
		index: make([]int32, buckets),
		shift: uint(64 - bits.TrailingZeros(uint(buckets))),
	}
}

// Reset forgets every tracked line, returning the monitor to the state
// NewLocalityMonitor builds without reallocating its arrays.
func (m *LocalityMonitor) Reset() {
	m.nodes = m.nodes[:1]
	m.nodes[0] = lruNode{}
	clear(m.index)
}

// Observe records a touch of the cache line containing addr and returns
// whether the line was already being tracked (= high locality).
//
//impact:hotpath
func (m *LocalityMonitor) Observe(addr uint64) bool {
	const lineBits = 6
	tag := addr >> lineBits
	b, n := m.find(tag)
	if n != 0 {
		m.unlink(n)
		m.pushNewest(n)
		return true
	}
	if len(m.nodes) < cap(m.nodes) {
		n = int32(len(m.nodes))
		m.nodes = m.nodes[:n+1]
	} else {
		// Full: reuse the least recently touched line's node. Removing
		// its tag can empty a bucket earlier on tag's probe run.
		n = m.nodes[0].newer
		m.unlink(n)
		old, _ := m.find(m.nodes[n].tag)
		m.unindex(old)
		b, _ = m.find(tag)
	}
	m.nodes[n].tag = tag
	m.index[b] = n
	m.pushNewest(n)
	return false
}

// find probes for tag from its home bucket. It returns the bucket holding
// tag and its node, or the empty bucket that ends the probe run and 0.
//
//impact:hotpath
func (m *LocalityMonitor) find(tag uint64) (int, int32) {
	mask := len(m.index) - 1
	for b := m.home(tag); ; b = (b + 1) & mask {
		if n := m.index[b]; n == 0 || m.nodes[n].tag == tag {
			return b, n
		}
	}
}

// home is tag's first bucket: the top bits of its Fibonacci hash.
//
//impact:hotpath
func (m *LocalityMonitor) home(tag uint64) int {
	return int((tag * 0x9e3779b97f4a7c15) >> m.shift)
}

// unindex empties bucket b. Each later entry of the probe run moves back
// into the hole unless its home lies after the hole, so no lookup stops
// short of its tag.
//
//impact:hotpath
func (m *LocalityMonitor) unindex(b int) {
	mask := len(m.index) - 1
	for j := (b + 1) & mask; m.index[j] != 0; j = (j + 1) & mask {
		if h := m.home(m.nodes[m.index[j]].tag); (j-h)&mask >= (j-b)&mask {
			m.index[b] = m.index[j]
			b = j
		}
	}
	m.index[b] = 0
}

// unlink takes node n off the recency list.
//
//impact:hotpath
func (m *LocalityMonitor) unlink(n int32) {
	newer, older := m.nodes[n].newer, m.nodes[n].older
	m.nodes[newer].older = older
	m.nodes[older].newer = newer
}

// pushNewest links node n in as the most recently touched line.
//
//impact:hotpath
func (m *LocalityMonitor) pushNewest(n int32) {
	newest := m.nodes[0].older
	m.nodes[n].newer, m.nodes[n].older = 0, newest
	m.nodes[newest].newer = n
	m.nodes[0].older = n
}

// PEIEngine executes PIM-enabled instructions against a memory controller.
type PEIEngine struct {
	ctrl     *memctrl.Controller
	mapper   *dram.AddrMapper
	monitor  *LocalityMonitor
	host     cache.Level
	costs    PEICosts
	counters *stats.Counters
}

// NewPEIEngine builds a PEI engine. host is the host-side execution path
// (the cache hierarchy); it may be nil, in which case all PEIs execute near
// memory regardless of locality.
func NewPEIEngine(ctrl *memctrl.Controller, mapper *dram.AddrMapper, host cache.Level, costs PEICosts) *PEIEngine {
	return &PEIEngine{
		ctrl:     ctrl,
		mapper:   mapper,
		monitor:  NewLocalityMonitor(256),
		host:     host,
		costs:    costs,
		counters: stats.NewFixed("host_side", "memory_side"),
	}
}

// Reconfigure returns the engine to the state NewPEIEngine builds over the
// same controller, mapper and host path, with new costs: the locality
// monitor emptied and the counters zeroed.
func (e *PEIEngine) Reconfigure(costs PEICosts) {
	e.costs = costs
	e.monitor.Reset()
	e.counters.Reset()
}

// Costs returns the engine's cost constants.
func (e *PEIEngine) Costs() PEICosts { return e.costs }

// Counters exposes dispatch statistics.
func (e *PEIEngine) Counters() *stats.Counters { return e.counters }

// Execute runs one PEI (e.g. pim_add) on the word at addr synchronously:
// the caller's clock should advance by the returned Latency. The PMU routes
// the PEI host-side when the locality monitor indicates cached data.
//
//impact:hotpath
func (e *PEIEngine) Execute(now int64, addr uint64, proc int) (PEIResult, error) {
	highLocality := e.monitor.Observe(addr)
	if highLocality && e.host != nil {
		e.counters.Add(CounterHostSide, 1)
		lat := e.costs.IssueCost + e.costs.HostExtra + e.host.Access(now+e.costs.IssueCost, addr, false)
		return PEIResult{Latency: lat, CompletedAt: now + lat, NearMemory: false}, nil
	}
	e.counters.Add(CounterMemorySide, 1)
	coord := e.mapper.Map(addr)
	bank := coord.FlatBank(e.ctrl.Device().Config())
	start := now + e.costs.IssueCost + e.costs.PEIOverhead
	res, err := e.ctrl.Access(start, bank, coord.Row, proc)
	if err != nil {
		return PEIResult{}, err
	}
	lat := e.costs.IssueCost + e.costs.PEIOverhead + res.Latency
	return PEIResult{
		Latency:     lat,
		CompletedAt: now + lat,
		NearMemory:  true,
		Outcome:     res.Outcome,
	}, nil
}

// ExecuteAsync issues a PEI without waiting for the memory-side operation:
// the caller's clock advances only by the issue cost, and CompletedAt tells
// a later memory fence when the operation drains. This is the sender-side
// fire-and-forget pattern of Listing 1.
//
//impact:hotpath
func (e *PEIEngine) ExecuteAsync(now int64, addr uint64, proc int) (PEIResult, error) {
	highLocality := e.monitor.Observe(addr)
	if highLocality && e.host != nil {
		e.counters.Add(CounterHostSide, 1)
		lat := e.costs.AsyncIssueCost + e.costs.HostExtra + e.host.Access(now+e.costs.AsyncIssueCost, addr, false)
		return PEIResult{Latency: e.costs.AsyncIssueCost, CompletedAt: now + lat, NearMemory: false}, nil
	}
	e.counters.Add(CounterMemorySide, 1)
	coord := e.mapper.Map(addr)
	bank := coord.FlatBank(e.ctrl.Device().Config())
	start := now + e.costs.AsyncIssueCost + e.costs.PEIOverhead
	res, err := e.ctrl.Activate(start, bank, coord.Row, proc)
	if err != nil {
		return PEIResult{}, err
	}
	return PEIResult{
		Latency:     e.costs.AsyncIssueCost,
		CompletedAt: start + res.Latency,
		NearMemory:  true,
		Outcome:     res.Outcome,
	}, nil
}
