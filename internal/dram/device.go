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

// Geometry caps. A device allocates per bank and per row, so an unbounded
// geometry lets one config exhaust host memory before any run starts. Each
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
	banks    []*Bank
	counters *stats.Counters
}

// NewDevice builds a device from the configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	banks := make([]*Bank, cfg.TotalBanks())
	for i := range banks {
		banks[i] = NewBank(cfg.Timing, cfg.RowBytes)
		banks[i].SetMaintenance(cfg.Maintenance)
	}
	return &Device{
		cfg:      cfg,
		banks:    banks,
		counters: stats.NewFixed("hit", "empty", "conflict", "rowclone"),
	}, nil
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
	return d.banks[i]
}

// Access performs a data access (read or write share the same timing at
// this granularity) against bank/row and records statistics.
func (d *Device) Access(now int64, bank int, row int64) (AccessResult, error) {
	b := d.Bank(bank)
	if b == nil {
		return AccessResult{}, fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	res := b.Access(now, row)
	d.record(res.Outcome)
	return res, nil
}

// Activate opens a row without a data transfer.
func (d *Device) Activate(now int64, bank int, row int64) (AccessResult, error) {
	b := d.Bank(bank)
	if b == nil {
		return AccessResult{}, fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	res := b.Activate(now, row)
	d.record(res.Outcome)
	return res, nil
}

// RowClone performs an in-DRAM copy within one bank.
func (d *Device) RowClone(now int64, bank int, srcRow, dstRow int64) (AccessResult, error) {
	b := d.Bank(bank)
	if b == nil {
		return AccessResult{}, fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	res := b.RowClone(now, srcRow, dstRow)
	d.record(res.Outcome)
	d.counters.Add(CounterRowClone, 1)
	return res, nil
}

// PrechargeAll closes every bank (used between experiments).
func (d *Device) PrechargeAll(now int64) {
	for _, b := range d.banks {
		b.Precharge(now)
	}
}

// Reset precharges all banks and clears busy state without dropping row
// contents or statistics.
func (d *Device) Reset() {
	for _, b := range d.banks {
		b.Reset()
	}
}

// ResetFull returns the device to its just-constructed state: every bank
// fully reset (timing state and row contents) and statistics zeroed, so a
// pooled machine starts each run indistinguishable from a fresh one.
func (d *Device) ResetFull() {
	for _, b := range d.banks {
		b.ResetFull()
	}
	d.counters.Reset()
}

// Reconfigure fully resets the device under a new configuration, reusing
// the allocated banks and row buffers. Reuse requires the allocation shape
// — bank count and row size — to be unchanged; Reconfigure reports whether
// it was possible and leaves the device untouched when it was not.
func (d *Device) Reconfigure(cfg Config) bool {
	if cfg.Validate() != nil || cfg.TotalBanks() != d.cfg.TotalBanks() || cfg.RowBytes != d.cfg.RowBytes {
		return false
	}
	d.cfg = cfg
	for _, b := range d.banks {
		b.Reconfigure(cfg.Timing, cfg.Maintenance)
	}
	d.counters.Reset()
	return true
}

// Counters exposes access statistics: hits, empties, conflicts, rowclones.
func (d *Device) Counters() *stats.Counters { return d.counters }

func (d *Device) record(o Outcome) {
	switch o {
	case OutcomeHit:
		d.counters.Add(CounterHit, 1)
	case OutcomeEmpty:
		d.counters.Add(CounterEmpty, 1)
	case OutcomeConflict:
		d.counters.Add(CounterConflict, 1)
	}
}
