package dram

import (
	"fmt"

	"repro/internal/stats"
)

// Config describes the device geometry (the paper's Table 2 defaults are in
// DefaultConfig).
type Config struct {
	Channels      int `json:"channels"`
	Ranks         int `json:"ranks"`
	BankGroups    int `json:"bank_groups"`
	BanksPerGroup int `json:"banks_per_group"`
	// RowBytes is the size of one DRAM row (8192 bytes in Table 2).
	RowBytes int `json:"row_bytes"`
	// RowsPerBank bounds the row index space of each bank.
	RowsPerBank int64  `json:"rows_per_bank"`
	Timing      Timing `json:"timing"`
	// Maintenance configures refresh and RowHammer-mitigation stalls
	// (zero value: disabled, matching the Table 2 calibration).
	Maintenance Maintenance `json:"maintenance"`
}

// DefaultConfig returns the paper's Table 2 main-memory configuration:
// DDR4-2400, 1 channel, 1 rank, 4 bank groups x 4 banks = 16 banks, 8 KiB
// rows, open-row policy with a 100 ns timeout.
func DefaultConfig() Config {
	return Config{
		Channels:      1,
		Ranks:         1,
		BankGroups:    4,
		BanksPerGroup: 4,
		RowBytes:      8192,
		RowsPerBank:   1 << 16,
		Timing:        DDR4_2400(),
	}
}

// WithBanks returns a copy of the config resized to the given total bank
// count (used by the Figure 11 bank sweep). The count must be divisible by
// the bank-group count.
func (c Config) WithBanks(total int) Config {
	out := c
	out.BanksPerGroup = total / out.BankGroups
	if out.BanksPerGroup == 0 {
		out.BankGroups = total
		out.BanksPerGroup = 1
	}
	return out
}

// TotalBanks returns the number of independently accessible banks.
func (c Config) TotalBanks() int {
	return c.Channels * c.Ranks * c.BankGroups * c.BanksPerGroup
}

// Geometry caps. A device allocates per bank, so an unbounded bank count
// lets one config exhaust host memory before any run starts. The row size
// sets the column bits of every physical address, and its cap keeps the
// addresses composed from row, bank and column well inside 64 bits. Each
// cap is at least twice what any figure, test or example uses (8192 banks,
// 8 KiB rows).
const (
	maxBanks    = 1 << 16
	maxRowBytes = 64 << 10
)

// Validate reports configuration errors early, naming fields by their
// JSON tags.
func (c Config) Validate() error {
	banks := 1
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"channels", c.Channels},
		{"ranks", c.Ranks},
		{"bank_groups", c.BankGroups},
		{"banks_per_group", c.BanksPerGroup},
	} {
		if f.v < 1 || f.v > maxBanks {
			return fmt.Errorf("dram: field %q: must be in 1..%d (got %d)", f.name, maxBanks, f.v)
		}
		// Both factors are at most maxBanks, so the product cannot
		// overflow before it is checked.
		if banks *= f.v; banks > maxBanks {
			return fmt.Errorf("dram: total banks (channels x ranks x bank_groups x banks_per_group) must be <= %d", maxBanks)
		}
	}
	if c.RowBytes <= 0 {
		return fmt.Errorf("dram: non-positive row size %d", c.RowBytes)
	}
	if c.RowBytes > maxRowBytes {
		return fmt.Errorf(`dram: field "row_bytes": must be <= %d (got %d)`, maxRowBytes, c.RowBytes)
	}
	if c.RowsPerBank <= 0 {
		return fmt.Errorf("dram: non-positive rows per bank %d", c.RowsPerBank)
	}
	// A negative latency would let a command finish before it starts.
	// Zero stays legal: it disables row_timeout and each maintenance
	// operation.
	t, m := c.Timing, c.Maintenance
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"timing.trcd", t.TRCD},
		{"timing.trp", t.TRP},
		{"timing.tcas", t.TCAS},
		{"timing.tras", t.TRAS},
		{"timing.tburst", t.TBurst},
		{"timing.row_timeout", t.RowTimeout},
		{"timing.rowclone_fpm", t.RowCloneFPM},
		{"maintenance.refresh_interval", m.RefreshInterval},
		{"maintenance.refresh_duration", m.RefreshDuration},
		{"maintenance.mitigation_threshold", int64(m.MitigationThreshold)},
		{"maintenance.mitigation_penalty", m.MitigationPenalty},
	} {
		if f.v < 0 {
			return fmt.Errorf("dram: field %q: must be >= 0 (got %d)", f.name, f.v)
		}
	}
	return nil
}

// Fixed counter IDs for device statistics, in the slot order passed to
// stats.NewFixed in NewDevice.
const (
	CounterHit stats.CounterID = iota
	CounterEmpty
	CounterConflict
	CounterRowClone
)

// Device is a full DRAM module: a flat array of banks (the hierarchy is
// encoded by AddrMapper) with shared timing and access statistics.
type Device struct {
	cfg      Config
	banks    []Bank
	counters *stats.Counters
}

// NewDevice builds a device from the configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		banks:    make([]Bank, cfg.TotalBanks()),
		counters: stats.NewFixed("hit", "empty", "conflict", "rowclone"),
	}
	d.Reconfigure(cfg)
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumBanks returns the total bank count.
func (d *Device) NumBanks() int { return len(d.banks) }

// Bank returns the bank at the given flat index. It returns nil for
// out-of-range indices so misaddressed requests surface in tests rather
// than panicking deep in a simulation.
func (d *Device) Bank(i int) *Bank {
	if i < 0 || i >= len(d.banks) {
		return nil
	}
	return &d.banks[i]
}

// outOfRange is the error every command reports for a bank index that
// Bank rejects.
func (d *Device) outOfRange(bank int) error {
	return fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
}

// Access performs a data access (read or write share the same timing at
// this granularity) against bank/row and records statistics.
func (d *Device) Access(now int64, bank int, row int64) (AccessResult, error) {
	b := d.Bank(bank)
	if b == nil {
		return AccessResult{}, d.outOfRange(bank)
	}
	return d.record(b.Access(now, row)), nil
}

// Activate opens a row without a data transfer.
func (d *Device) Activate(now int64, bank int, row int64) (AccessResult, error) {
	b := d.Bank(bank)
	if b == nil {
		return AccessResult{}, d.outOfRange(bank)
	}
	return d.record(b.Activate(now, row)), nil
}

// RowClone performs an in-DRAM copy within one bank.
func (d *Device) RowClone(now int64, bank int, srcRow, dstRow int64) (AccessResult, error) {
	b := d.Bank(bank)
	if b == nil {
		return AccessResult{}, d.outOfRange(bank)
	}
	d.counters.Add(CounterRowClone, 1)
	return d.record(b.RowClone(now, srcRow, dstRow)), nil
}

// Reconfigure returns the device to the state NewDevice(cfg) builds,
// reusing the bank array: every bank precharged and idle under the new
// timing and maintenance, statistics zeroed. Reuse requires the bank count
// to be unchanged; Reconfigure reports whether cfg was valid and fit, and
// leaves the device untouched when not.
func (d *Device) Reconfigure(cfg Config) bool {
	if cfg.Validate() != nil || cfg.TotalBanks() != len(d.banks) {
		return false
	}
	d.cfg = cfg
	for i := range d.banks {
		d.banks[i].Reconfigure(cfg.Timing, cfg.Maintenance)
	}
	d.counters.Reset()
	return true
}

// Counters exposes access statistics: hits, empties, conflicts, rowclones.
func (d *Device) Counters() *stats.Counters { return d.counters }

// record counts a command's row-buffer outcome and passes its result on.
func (d *Device) record(res AccessResult) AccessResult {
	switch res.Outcome {
	case OutcomeHit:
		d.counters.Add(CounterHit, 1)
	case OutcomeEmpty:
		d.counters.Add(CounterEmpty, 1)
	case OutcomeConflict:
		d.counters.Add(CounterConflict, 1)
	}
	return res
}
