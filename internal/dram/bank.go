package dram

// Bank models the timing of one DRAM bank: the row latched in its row
// buffer, when it is next free, and the maintenance stalls it owes. The
// row buffer is the shared microarchitectural state the IMPACT timing
// channel exploits. Banks hold no row contents: the attacks decode
// latency, never data.
type Bank struct {
	timing Timing
	maint  Maintenance
	// raa counts activations toward the RowHammer-mitigation threshold.
	raa int

	// openRow is the row currently latched in the row buffer, or -1 when
	// the bank is precharged.
	openRow int64
	// busyUntil is the cycle at which the bank finishes its current
	// operation; new commands stall until then.
	busyUntil int64
	// activatedAt is the cycle of the most recent activation, used to
	// enforce tRAS before a precharge.
	activatedAt int64
	// lastTouch is the cycle of the most recent access, used by the
	// open-row timeout policy.
	lastTouch int64
}

// NewBank returns a precharged bank with the given timing.
func NewBank(timing Timing) *Bank {
	return &Bank{timing: timing, openRow: -1}
}

// SetMaintenance configures refresh and RowHammer-mitigation behaviour.
func (b *Bank) SetMaintenance(m Maintenance) { b.maint = m }

// OpenRow returns the row currently in the row buffer, or -1 if precharged.
// It does not apply the timeout policy; callers that want timeout semantics
// should use Access.
func (b *Bank) OpenRow() int64 { return b.openRow }

// BusyUntil returns the cycle at which the bank becomes free.
func (b *Bank) BusyUntil() int64 { return b.busyUntil }

// applyTimeout closes the row if it has sat untouched past the open-row
// timeout, emulating the controller's timeout-based precharge.
//
//impact:hotpath
func (b *Bank) applyTimeout(now int64) {
	if b.openRow >= 0 && b.timing.RowTimeout > 0 && now-b.lastTouch > b.timing.RowTimeout {
		b.openRow = -1
	}
}

// start returns the cycle at which a new command can begin, accounting for
// the bank being busy and for refresh windows; a refresh that happened
// since the last touch precharges the open row.
//
//impact:hotpath
func (b *Bank) start(now int64) int64 {
	if b.busyUntil > now {
		now = b.busyUntil
	}
	adjusted, rowsClosed := b.maint.refreshAdjust(now, b.lastTouch)
	if rowsClosed {
		b.openRow = -1
	}
	return adjusted
}

// activationPenalty accounts one activation against the RowHammer
// mitigation budget (RFM/PRAC), returning the preventive-action stall when
// the threshold is reached (Section 8.4).
//
//impact:hotpath
func (b *Bank) activationPenalty() int64 {
	if b.maint.MitigationThreshold <= 0 {
		return 0
	}
	b.raa++
	if b.raa >= b.maint.MitigationThreshold {
		b.raa = 0
		return b.maint.MitigationPenalty
	}
	return 0
}

// command runs the activation sequence every row command shares. When
// hitRow is latched the command is a hit costing hitLat. Otherwise it
// activates, after a precharge (which first waits out tRAS) when another
// row is open, and then pays tail. Either way openRow is latched after.
//
//impact:hotpath
func (b *Bank) command(now, hitRow, openRow, hitLat, tail int64) AccessResult {
	b.applyTimeout(now)
	start := b.start(now)
	var outcome Outcome
	var deviceLat int64
	switch {
	case b.openRow == hitRow:
		outcome = OutcomeHit
		deviceLat = hitLat
	case b.openRow < 0:
		outcome = OutcomeEmpty
		deviceLat = b.timing.TRCD + tail + b.activationPenalty()
		b.activatedAt = start
	default:
		outcome = OutcomeConflict
		if rasReady := b.activatedAt + b.timing.TRAS; rasReady > start {
			start = rasReady
		}
		deviceLat = b.timing.TRP + b.timing.TRCD + tail + b.activationPenalty()
		b.activatedAt = start + b.timing.TRP
	}
	done := start + deviceLat
	b.openRow = openRow
	b.busyUntil = done
	b.lastTouch = done
	return AccessResult{Latency: done - now, Outcome: outcome, CompletedAt: done}
}

// Access performs a read or write of the given row, returning the access
// latency relative to now and the row-buffer outcome.
//
//impact:hotpath
func (b *Bank) Access(now int64, row int64) AccessResult {
	lat := b.timing.HitLatency()
	return b.command(now, row, row, lat, lat)
}

// Activate opens the given row without transferring data (used by sender
// PEIs that only need to perturb the row buffer). Latency accounting matches
// Access minus the column access and burst; a hit costs one cycle.
//
//impact:hotpath
func (b *Bank) Activate(now int64, row int64) AccessResult {
	return b.command(now, row, row, 1, 0)
}

// Precharge closes the bank's open row. It is idempotent.
//
//impact:hotpath
func (b *Bank) Precharge(now int64) AccessResult {
	b.applyTimeout(now)
	start := b.start(now)
	if b.openRow < 0 {
		return AccessResult{Latency: 0, Outcome: OutcomeEmpty, CompletedAt: start}
	}
	rasReady := b.activatedAt + b.timing.TRAS
	if rasReady > start {
		start = rasReady
	}
	done := start + b.timing.TRP
	b.openRow = -1
	b.busyUntil = done
	b.lastTouch = done
	return AccessResult{Latency: done - now, Outcome: OutcomeConflict, CompletedAt: done}
}

// RowClone performs an in-DRAM Fast-Parallel-Mode copy of srcRow into
// dstRow: the first activation latches srcRow into the row buffer, the
// second connects dstRow, which is left open. If a different row is open
// the bank must first precharge, which is the timing signal the IMPACT-PuM
// receiver decodes.
//
//impact:hotpath
func (b *Bank) RowClone(now int64, srcRow, dstRow int64) AccessResult {
	return b.command(now, srcRow, dstRow, b.timing.RowCloneFPM, b.timing.RowCloneFPM)
}

// Reconfigure returns the bank to the state NewBank builds, under new
// timing and maintenance parameters: precharged, idle, with no activations
// counted.
func (b *Bank) Reconfigure(t Timing, m Maintenance) {
	*b = Bank{timing: t, maint: m, openRow: -1}
}
