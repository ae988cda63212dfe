package pim

import (
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/stats"
)

// Fixed counter IDs for the RowClone engine, in the slot order passed to
// stats.NewFixed in NewRowCloneEngine: per-bank operations dispatched and
// engine-level requests issued.
const (
	CounterOps stats.CounterID = iota
	CounterRequests
)

// RowCloneCosts collects the software-path constants of the RowClone
// interface (Section 4.2: the application specifies source range,
// destination range and a bank mask in a single request).
type RowCloneCosts struct {
	// IssueCost is the core-side cost of composing and issuing one masked
	// RowClone request, regardless of how many banks it fans out to.
	IssueCost int64 `json:"issue_cost"`
	// MeasureIssueCost is the cheaper single-bank probe issue the
	// receiver uses (no range/mask composition).
	MeasureIssueCost int64 `json:"measure_issue_cost"`
	// PerBankDispatch is the memory controller's serialization cost per
	// selected bank when it splits the masked request into per-bank
	// operations.
	PerBankDispatch int64 `json:"per_bank_dispatch"`
}

// DefaultRowCloneCosts returns the constants calibrated to the paper's
// IMPACT-PuM throughput (14.8 Mb/s); TestRowBufferGapNearPaper in
// internal/figures holds the measured rate inside a recorded band.
func DefaultRowCloneCosts() RowCloneCosts {
	return RowCloneCosts{IssueCost: 60, MeasureIssueCost: 25, PerBankDispatch: 4}
}

// RowCloneResult describes one masked RowClone request.
type RowCloneResult struct {
	// IssueLatency is the core-side cost (the request is asynchronous;
	// a fence waits for CompletedAt).
	IssueLatency int64
	// CompletedAt is when the last per-bank operation finishes.
	CompletedAt int64
	// PerBank holds the outcome of each dispatched bank operation,
	// indexed like the banks argument; banks masked out hold zero values.
	PerBank []dram.AccessResult
}

// RowCloneEngine issues in-DRAM bulk copies through the memory controller.
type RowCloneEngine struct {
	ctrl     *memctrl.Controller
	costs    RowCloneCosts
	counters *stats.Counters
}

// NewRowCloneEngine builds a RowClone engine over the controller.
func NewRowCloneEngine(ctrl *memctrl.Controller, costs RowCloneCosts) *RowCloneEngine {
	return &RowCloneEngine{ctrl: ctrl, costs: costs, counters: stats.NewFixed("ops", "requests")}
}

// Reconfigure returns the engine to the state NewRowCloneEngine builds over
// the same controller, with new costs and zeroed counters.
func (e *RowCloneEngine) Reconfigure(costs RowCloneCosts) {
	e.costs = costs
	e.counters.Reset()
}

// Costs returns the engine's cost constants.
func (e *RowCloneEngine) Costs() RowCloneCosts { return e.costs }

// Counters exposes dispatch statistics.
func (e *RowCloneEngine) Counters() *stats.Counters { return e.counters }

// Submit issues one masked RowClone request: for each set bit i of mask, the
// controller copies srcRow into dstRow within banks[i]. Operations proceed
// in parallel across banks (bank-level parallelism is the PuM channel's
// throughput advantage); the controller serializes only the small per-bank
// dispatch. The sender's clock advances by IssueLatency; a fence waits for
// CompletedAt.
func (e *RowCloneEngine) Submit(now int64, banks []int, mask uint64, srcRow, dstRow int64, proc int) (RowCloneResult, error) {
	out := RowCloneResult{
		IssueLatency: e.costs.IssueCost,
		CompletedAt:  now + e.costs.IssueCost,
		PerBank:      make([]dram.AccessResult, len(banks)),
	}
	dispatch := now + e.costs.IssueCost
	for i, bank := range banks {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		dispatch += e.costs.PerBankDispatch
		res, err := e.ctrl.RowClone(dispatch, bank, srcRow, dstRow, proc)
		if err != nil {
			return RowCloneResult{}, err
		}
		out.PerBank[i] = res
		if done := dispatch + res.Latency; done > out.CompletedAt {
			out.CompletedAt = done
		}
		e.counters.Add(CounterOps, 1)
	}
	e.counters.Add(CounterRequests, 1)
	return out, nil
}

// Measure issues a single-bank RowClone synchronously and returns its
// core-observed latency — the receiver-side probe of Listing 2 (the copy
// direction is swapped by the caller: dst becomes the source).
func (e *RowCloneEngine) Measure(now int64, bank int, srcRow, dstRow int64, proc int) (dram.AccessResult, error) {
	res, err := e.ctrl.RowClone(now+e.costs.MeasureIssueCost, bank, srcRow, dstRow, proc)
	if err != nil {
		return dram.AccessResult{}, err
	}
	res.Latency += e.costs.MeasureIssueCost
	res.CompletedAt = now + res.Latency
	e.counters.Add(CounterOps, 1)
	e.counters.Add(CounterRequests, 1)
	return res, nil
}
