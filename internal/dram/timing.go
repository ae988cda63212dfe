// Package dram models a DDR4 main memory device at the granularity the
// IMPACT attacks exploit: per-bank row-buffer state, activation/precharge
// timing, open-row policy with a timeout, and RowClone-style in-DRAM bulk
// copy. All latencies are expressed in CPU cycles of the simulated host
// (2.6 GHz in the paper's Table 2 configuration) so that attack code can
// compare them directly against rdtscp-style measurements.
package dram

// Timing holds DRAM timing parameters converted to CPU cycles. The paper's
// Table 2 uses DDR4-2400 with tRCD = tRP = 13.5 ns; at a 2.6 GHz host clock
// that is ~35 CPU cycles each.
type Timing struct {
	// TRCD is the activate-to-read/write delay (row open cost).
	TRCD int64 `json:"trcd"`
	// TRP is the precharge latency (row close cost).
	TRP int64 `json:"trp"`
	// TCAS is the column access latency once a row is open.
	TCAS int64 `json:"tcas"`
	// TRAS is the minimum time a row must stay open after activation
	// before it may be precharged.
	TRAS int64 `json:"tras"`
	// TBurst is the data burst transfer time for one access.
	TBurst int64 `json:"tburst"`
	// RowTimeout is the open-row policy timeout: a row left untouched
	// this long is closed by the controller; 0 disables the timeout
	// (pure open-row policy). Table 2 lists 100 ns, but any timeout
	// shorter than an attack batch (covert channels) or a bank sweep
	// (side channel) closes every row between probes and erases the
	// hit-vs-conflict signature the paper's Figures 8 and 11 demonstrably
	// observe — so the default disables it, and timeout values are
	// exercised as an ablation that measurably degrades and then kills
	// the channel (BenchmarkAblationRowPolicy).
	RowTimeout int64 `json:"row_timeout"`
	// RowCloneFPM is the latency of one RowClone Fast-Parallel-Mode
	// operation (two back-to-back activations) when the source row is
	// already the open row.
	RowCloneFPM int64 `json:"rowclone_fpm"`
}

// DDR4_2400 returns the paper's Table 2 timing converted to cycles of a
// 2.6 GHz host: tRCD = tRP = 13.5 ns = 35 cycles, tCAS ~= 35 cycles,
// tRAS ~= 32 ns = 83 cycles, 100 ns row timeout = 260 cycles.
func DDR4_2400() Timing {
	return Timing{
		TRCD:        35,
		TRP:         35,
		TCAS:        35,
		TRAS:        83,
		TBurst:      4,
		RowTimeout:  0,
		RowCloneFPM: 50,
	}
}

// HitLatency returns the device-side latency of a row-buffer hit.
func (t Timing) HitLatency() int64 { return t.TCAS + t.TBurst }

// EmptyLatency returns the device-side latency of an access to a closed
// (precharged) bank: one activation plus the column access.
func (t Timing) EmptyLatency() int64 { return t.TRCD + t.TCAS + t.TBurst }

// ConflictLatency returns the device-side latency of a row-buffer conflict:
// precharge the open row, activate the target, then access it.
func (t Timing) ConflictLatency() int64 {
	return t.TRP + t.TRCD + t.TCAS + t.TBurst
}

// WorstCaseLatency returns the constant-time defense latency: the maximum
// latency any single access can take (a conflict against a row that was
// activated immediately beforehand, forcing a tRAS stall before precharge).
func (t Timing) WorstCaseLatency() int64 {
	return t.TRAS + t.TRP + t.TRCD + t.TCAS + t.TBurst
}

// WorstCaseRowClone returns the constant-time defense latency of a
// RowClone: a conflict against a row activated immediately beforehand, so
// the precharge first waits out tRAS, then the source activation and the
// Fast-Parallel-Mode copy.
func (t Timing) WorstCaseRowClone() int64 {
	return t.TRAS + t.TRP + t.TRCD + t.RowCloneFPM
}
