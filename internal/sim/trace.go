package sim

// Trace holds the memory-controller requests of one recorded run, so the
// run can be re-timed under another controller without simulating its
// caches, TLBs and prefetchers again (Machine.Replay). This is trace-driven
// memory simulation as in Ramulator's trace mode (Kim et al., IEEE CAL
// 2015), cut at the controller: every request is re-issued through
// memAccess, so no latency arithmetic above the controller is copied.
//
// A replay is exact only for a run that issues what workloads.Mem issues:
// Core.Load, Hierarchy.Store and Advance. Such a run keeps two facts.
//
//   - Nothing above the controller reads the clock: caches, TLBs and
//     prefetchers only pass it down. So the run issues the same requests,
//     in the same order, under every controller; only their cycles differ.
//   - The core clock moves only by fixed costs and by charged latencies. A
//     request is charged when it is the LLC-miss fill of the line Core.Load
//     demands or of one page-walk level. Writebacks, the write-allocate
//     fills of evicted victims, the fills of Hierarchy.Store (whose latency
//     is discarded) and prefetch fills are not. Every request of one access
//     chain issues in the same cycle, with the charged fill first.
//
// LoadOverlapped breaks the second fact, since it truncates
// mlp × (full − llcLat), and so do LoadUncached and DMATransfer, whose
// requests are charged without a mark. PEI and RowClone requests bypass
// memAccess and are not recorded at all.
type Trace struct {
	reqs []Request
}

// Request is one recorded memory-controller request.
type Request struct {
	// Cycle is the cycle the request issued at and Latency what the
	// controller answered.
	Cycle   int64
	Addr    uint64
	Latency int64
	// Proc is the requester memAccess was called for.
	Proc int32
	// Charged reports whether Latency moved the core clock.
	Charged bool
}

// Requests returns the recorded requests in issue order. The slice is the
// trace's own buffer, valid until the next Record of t.
func (t *Trace) Requests() []Request { return t.reqs }

// noDemand is the mark Record starts from: no request has that address.
const noDemand = ^uint64(0)

// Record empties t and attaches it to the machine: every request memAccess
// serves from now on is appended to t, until Reset detaches it. t's buffer
// is kept, so one trace can record run after run.
func (m *Machine) Record(t *Trace) {
	t.reqs = t.reqs[:0]
	m.trace = t
	m.demand = noDemand
}

// record appends one request to the attached trace. The request is charged
// when it is the first since Core.Load or the page walker marked the
// address it demands, and has that address. A demanded fill is always the
// first request of its access; a later fill of the same address would
// need the line evicted from the LLC first, and that eviction issues a
// request of its own, which clears the mark.
func (m *Machine) record(now int64, addr uint64, proc int, lat int64) {
	charged := addr == m.demand
	m.demand = noDemand
	m.trace.reqs = append(m.trace.reqs, Request{Cycle: now, Addr: addr, Latency: lat, Proc: int32(proc), Charged: charged})
}

// Replay re-issues every request of t, in recorded order, through this
// machine's memory controller, and returns the drift: how many more
// cycles (fewer, if negative) the recorded run takes under this machine's
// controller than it took when recorded. The machine should be as New
// builds it, like the one the run was recorded on.
//
// Each request issues at its recorded cycle plus the drift of every
// charged request recorded before it in a strictly earlier cycle. A
// request recorded in the same cycle as a charged one belongs to that
// fill's own access chain, which issued before the fill's latency reached
// the clock.
func (m *Machine) Replay(t *Trace) int64 {
	var drift, pending, pendingCycle int64
	for _, r := range t.reqs {
		if r.Cycle > pendingCycle {
			drift += pending
			pending = 0
		}
		lat := m.memAccess(r.Cycle+drift, r.Addr, int(r.Proc))
		if r.Charged {
			pending += lat - r.Latency
			pendingCycle = r.Cycle
		}
	}
	return drift + pending
}
