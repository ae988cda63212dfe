// Package memctrl models the memory controller that fronts the DRAM device:
// request overheads, row policies, and the paper's four IMPACT defenses
// (bank partitioning, closed-row policy, constant-time DRAM, and the
// adaptive constant-time "ACT" mechanism of Section 7.4).
package memctrl

import (
	"errors"
	"fmt"

	"repro/internal/dram"
	"repro/internal/jsonenum"
	"repro/internal/stats"
)

// ErrPartitionViolation is returned when a process touches a bank owned by
// another process under the MPR (memory partitioning) defense.
var ErrPartitionViolation = errors.New("memctrl: bank partition violation")

// Defense selects the active countermeasure.
type Defense int

const (
	// DefenseNone serves requests with the default open-row policy.
	DefenseNone Defense = iota + 1
	// DefensePartition (MPR, Section 7.1) dedicates each bank to one
	// process and rejects cross-process accesses.
	DefensePartition
	// DefenseClosedRow (CRP, Section 7.2) precharges the row after every
	// access, so every access pays exactly one activation.
	DefenseClosedRow
	// DefenseConstantTime (CTD, Section 7.3) pads every access to the
	// worst-case DRAM latency.
	DefenseConstantTime
	// DefenseAdaptive (ACT, Section 7.4) enforces constant-time latency
	// per bank only after observing row-buffer contention.
	DefenseAdaptive
)

// String implements fmt.Stringer.
func (d Defense) String() string {
	switch d {
	case DefenseNone:
		return "none"
	case DefensePartition:
		return "mpr"
	case DefenseClosedRow:
		return "crp"
	case DefenseConstantTime:
		return "ctd"
	case DefenseAdaptive:
		return "act"
	default:
		return "unknown"
	}
}

// defenseNames maps the JSON/String form back to the enum.
var defenseNames = map[string]Defense{
	"none": DefenseNone,
	"mpr":  DefensePartition,
	"crp":  DefenseClosedRow,
	"ctd":  DefenseConstantTime,
	"act":  DefenseAdaptive,
}

// Valid reports whether d names one of the five defined defenses.
func (d Defense) Valid() bool {
	return d >= DefenseNone && d <= DefenseAdaptive
}

// MarshalJSON encodes the defense as its String form ("none", "mpr", "crp",
// "ctd", "act").
func (d Defense) MarshalJSON() ([]byte, error) {
	blob, err := jsonenum.Marshal(d, "defense", defenseNames)
	if err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	return blob, nil
}

// UnmarshalJSON decodes either the String form or the integer ordinal.
func (d *Defense) UnmarshalJSON(data []byte) error {
	v, err := jsonenum.Unmarshal(data, "defense", defenseNames)
	if err != nil {
		return fmt.Errorf("memctrl: %w", err)
	}
	*d = v
	return nil
}

// ACTConfig parameterizes the adaptive constant-time defense. The paper
// evaluates three variants over 1000 ns epochs (2600 cycles at 2.6 GHz).
type ACTConfig struct {
	// EpochCycles is the epoch length in CPU cycles.
	EpochCycles int64 `json:"epoch_cycles"`
	// ConflictThreshold is the number of row-buffer conflicts within one
	// epoch that arms the constant-time policy for the next epochs.
	ConflictThreshold int `json:"conflict_threshold"`
	// PenaltyEpochs is how many epochs the bank stays constant-time after
	// the threshold is crossed.
	PenaltyEpochs int64 `json:"penalty_epochs"`
}

// ACTAggressive returns the paper's ACT-Aggressive variant: constant time
// for the next 4000 epochs after the 1st conflict in a bank.
func ACTAggressive() ACTConfig {
	return ACTConfig{EpochCycles: 2600, ConflictThreshold: 1, PenaltyEpochs: 4000}
}

// ACTMild returns ACT-Mild: constant time for 2 epochs after the 1st
// conflict.
func ACTMild() ACTConfig {
	return ACTConfig{EpochCycles: 2600, ConflictThreshold: 1, PenaltyEpochs: 2}
}

// ACTConservative returns ACT-Conservative: constant time for 2 epochs after
// 5 conflicts in an epoch.
func ACTConservative() ACTConfig {
	return ACTConfig{EpochCycles: 2600, ConflictThreshold: 5, PenaltyEpochs: 2}
}

// Fixed counter IDs for controller statistics, in the slot order passed to
// stats.NewFixed in New.
const (
	CounterRequests stats.CounterID = iota
	CounterACTPadded
	CounterPartitionViolation
)

// actBankState tracks per-bank epoch accounting for the ACT defense.
type actBankState struct {
	epoch              int64
	conflictsInEpoch   int
	constantUntilEpoch int64
}

// Config parameterizes the controller.
type Config struct {
	// Defense selects the countermeasure (DefenseNone to disable).
	Defense Defense `json:"defense"`
	// ACT configures DefenseAdaptive; ignored otherwise.
	ACT ACTConfig `json:"act"`
	// RequestOverhead is the fixed controller/queueing cost added to each
	// request, in cycles.
	RequestOverhead int64 `json:"request_overhead"`
}

// DefaultConfig returns an undefended controller with a 15-cycle fixed
// request overhead (queue, scheduling, bus).
func DefaultConfig() Config {
	return Config{Defense: DefenseNone, RequestOverhead: 15}
}

// Validate reports configuration errors, naming fields by their JSON tags.
func (c Config) Validate() error {
	if !c.Defense.Valid() {
		return fmt.Errorf(`memctrl: field "defense": unknown defense %d`, int(c.Defense))
	}
	if c.RequestOverhead < 0 {
		return fmt.Errorf(`memctrl: field "request_overhead": must be >= 0 (got %d)`, c.RequestOverhead)
	}
	if c.Defense == DefenseAdaptive {
		if c.ACT.EpochCycles <= 0 {
			return fmt.Errorf(`memctrl: field "act.epoch_cycles": must be > 0 for the act defense (got %d)`, c.ACT.EpochCycles)
		}
		if c.ACT.ConflictThreshold <= 0 {
			return fmt.Errorf(`memctrl: field "act.conflict_threshold": must be > 0 for the act defense (got %d)`, c.ACT.ConflictThreshold)
		}
	}
	return nil
}

// Controller fronts a DRAM device.
type Controller struct {
	dev      *dram.Device
	cfg      Config
	actState []actBankState
	owners   []int
	counters *stats.Counters
}

// New builds a controller over the given device.
func New(dev *dram.Device, cfg Config) *Controller {
	n := dev.NumBanks()
	c := &Controller{
		dev:      dev,
		actState: make([]actBankState, n),
		owners:   make([]int, n),
		counters: stats.NewFixed("requests", "act_padded", "partition_violation"),
	}
	c.Reconfigure(cfg)
	return c
}

// Reconfigure returns the controller to the state New(dev, cfg) builds over
// its device, reusing the per-bank arrays: ACT accounting cleared, every
// bank unowned, counters zeroed. The device keeps its bank count, so the
// arrays always fit.
func (c *Controller) Reconfigure(cfg Config) {
	c.cfg = cfg
	clear(c.actState)
	for i := range c.owners {
		c.owners[i] = -1
	}
	c.counters.Reset()
}

// Device returns the underlying DRAM device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Counters exposes controller statistics.
func (c *Controller) Counters() *stats.Counters { return c.counters }

// SetOwner assigns a bank to a process for the partitioning defense.
func (c *Controller) SetOwner(bank, proc int) error {
	if bank < 0 || bank >= len(c.owners) {
		return fmt.Errorf("memctrl: bank %d out of range [0,%d)", bank, len(c.owners))
	}
	c.owners[bank] = proc
	return nil
}

// Access serves one memory request for the given process and returns the
// end-to-end latency (controller overhead + device latency, possibly padded
// by a defense) plus the true row-buffer outcome. Under latency-padding
// defenses the returned Outcome reflects what the device did, but the
// Latency is what the requester observes — which is exactly the distinction
// the defenses exploit.
//
//impact:hotpath
func (c *Controller) Access(now int64, bank int, row int64, proc int) (dram.AccessResult, error) {
	if err := c.admit(bank, proc); err != nil {
		return dram.AccessResult{}, err
	}
	res, err := c.dev.Access(now+c.cfg.RequestOverhead, bank, row)
	if err != nil {
		return dram.AccessResult{}, err
	}
	return c.settle(now, bank, res, dram.Timing.WorstCaseLatency), nil
}

// Activate opens a row (sender-side PEIs) subject to the same defenses,
// except that no defense pads it: ACT only observes its outcome.
//
//impact:hotpath
func (c *Controller) Activate(now int64, bank int, row int64, proc int) (dram.AccessResult, error) {
	if err := c.admit(bank, proc); err != nil {
		return dram.AccessResult{}, err
	}
	res, err := c.dev.Activate(now+c.cfg.RequestOverhead, bank, row)
	if err != nil {
		return dram.AccessResult{}, err
	}
	return c.settle(now, bank, res, nil), nil
}

// RowClone dispatches an in-DRAM copy subject to the active defense.
//
//impact:hotpath
func (c *Controller) RowClone(now int64, bank int, srcRow, dstRow int64, proc int) (dram.AccessResult, error) {
	if err := c.admit(bank, proc); err != nil {
		return dram.AccessResult{}, err
	}
	res, err := c.dev.RowClone(now+c.cfg.RequestOverhead, bank, srcRow, dstRow)
	if err != nil {
		return dram.AccessResult{}, err
	}
	return c.settle(now, bank, res, dram.Timing.WorstCaseRowClone), nil
}

// admit is the partition check of the MPR defense: it rejects a request
// for a bank another process owns. Out-of-range banks pass, so the device
// reports them.
//
//impact:hotpath
func (c *Controller) admit(bank, proc int) error {
	if c.cfg.Defense == DefensePartition && bank >= 0 && bank < len(c.owners) {
		if owner := c.owners[bank]; owner >= 0 && owner != proc {
			c.counters.Add(CounterPartitionViolation, 1)
			return ErrPartitionViolation
		}
	}
	return nil
}

// settle finishes a request the device served: it adds the controller
// overhead, counts the request and applies the closed-row, CTD or ACT
// defense. worst gives the latency a padding defense pads the command to;
// a nil worst leaves the command unpadded.
//
//impact:hotpath
func (c *Controller) settle(now int64, bank int, res dram.AccessResult, worst func(dram.Timing) int64) dram.AccessResult {
	res.Latency += c.cfg.RequestOverhead
	c.counters.Add(CounterRequests, 1)
	switch c.cfg.Defense {
	case DefenseClosedRow:
		// Precharge immediately after the command; the requester pays the
		// activation on this access (Empty path) and the bank is busy
		// through the precharge. The device served the bank, so it exists.
		c.dev.Bank(bank).Precharge(res.CompletedAt)
	case DefenseConstantTime:
		if worst != nil {
			res.Latency = c.padded(res.Latency, worst)
		}
	case DefenseAdaptive:
		if c.actObserve(now, bank, res.Outcome) && worst != nil {
			res.Latency = c.padded(res.Latency, worst)
			c.counters.Add(CounterACTPadded, 1)
		}
	}
	return res
}

// padded returns the constant-time latency of a command whose device-side
// worst case worst computes, never shorter than the observed latency, so
// padding cannot speed a request up. The timing is read only here, off the
// undefended path.
//
//impact:hotpath
func (c *Controller) padded(actual int64, worst func(dram.Timing) int64) int64 {
	return max(actual, worst(c.dev.Config().Timing)+c.cfg.RequestOverhead)
}

// actObserve updates per-bank ACT epoch accounting with the outcome of an
// access that started at now and reports whether the bank is currently under
// the constant-time policy.
//
//impact:hotpath
func (c *Controller) actObserve(now int64, bank int, outcome dram.Outcome) bool {
	if bank < 0 || bank >= len(c.actState) || c.cfg.ACT.EpochCycles <= 0 {
		return false
	}
	st := &c.actState[bank]
	epoch := now / c.cfg.ACT.EpochCycles
	if epoch != st.epoch {
		// Epoch rollover: decide the next policy from the last epoch's
		// conflict count. The penalty window is measured from the epoch
		// the conflicts occurred in, so an attack that revisits a bank
		// every PenaltyEpochs+1 epochs threads between penalties — which
		// is exactly why the paper finds ACT-Mild and ACT-Conservative
		// unable to reduce IMPACT's throughput (Section 7.4).
		if st.conflictsInEpoch >= c.cfg.ACT.ConflictThreshold {
			until := st.epoch + c.cfg.ACT.PenaltyEpochs
			if until > st.constantUntilEpoch {
				st.constantUntilEpoch = until
			}
		}
		st.conflictsInEpoch = 0
		st.epoch = epoch
	}
	if outcome == dram.OutcomeConflict {
		st.conflictsInEpoch++
	}
	return epoch < st.constantUntilEpoch
}

// ConstantTimeActive reports whether ACT currently pads the given bank. The
// adaptive attacker in Section 7.4 uses this observable (it can infer it
// from latencies) to transmit only during default-latency epochs.
func (c *Controller) ConstantTimeActive(now int64, bank int) bool {
	if c.cfg.Defense == DefenseConstantTime {
		return true
	}
	if c.cfg.Defense != DefenseAdaptive {
		return false
	}
	if bank < 0 || bank >= len(c.actState) || c.cfg.ACT.EpochCycles <= 0 {
		return false
	}
	st := &c.actState[bank]
	epoch := now / c.cfg.ACT.EpochCycles
	until := st.constantUntilEpoch
	if epoch != st.epoch && st.conflictsInEpoch >= c.cfg.ACT.ConflictThreshold {
		// The rollover on the next access would arm this penalty; apply
		// the same window arithmetic actObserve uses so idle epochs
		// count toward expiry.
		if pending := st.epoch + c.cfg.ACT.PenaltyEpochs; pending > until {
			until = pending
		}
	}
	return epoch < until
}
