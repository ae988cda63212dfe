package dram

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestDeviceConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero banks", func(c *Config) { c.BanksPerGroup = 0; c.BankGroups = 0 }},
		{"zero row bytes", func(c *Config) { c.RowBytes = 0 }},
		{"zero rows", func(c *Config) { c.RowsPerBank = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := NewDevice(cfg); err == nil {
				t.Fatal("expected construction error")
			}
		})
	}
	// Every timing and maintenance field rejects a negative value and
	// names itself by its JSON path; zero is legal.
	cfg := DefaultConfig()
	for _, section := range []struct {
		name string
		v    reflect.Value
	}{
		{"timing", reflect.ValueOf(&cfg.Timing).Elem()},
		{"maintenance", reflect.ValueOf(&cfg.Maintenance).Elem()},
	} {
		for i := 0; i < section.v.NumField(); i++ {
			f := section.v.Field(i)
			path := strconv.Quote(section.name + "." + section.v.Type().Field(i).Tag.Get("json"))
			saved := f.Int()
			f.SetInt(-1)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("field %s = -1: Validate() = %v, want an error naming it", path, err)
			}
			f.SetInt(0)
			if err := cfg.Validate(); err != nil {
				t.Errorf("field %s = 0: Validate() = %v, want nil", path, err)
			}
			f.SetInt(saved)
		}
	}
}

func TestDeviceBankOutOfRange(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Access(0, -1, 0); err == nil {
		t.Error("negative bank accepted")
	}
	if _, err := dev.Access(0, dev.NumBanks(), 0); err == nil {
		t.Error("out-of-range bank accepted")
	}
	if dev.Bank(dev.NumBanks()) != nil {
		t.Error("Bank out of range returned non-nil")
	}
}

func TestDeviceCountsOutcomes(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.Access(0, 0, 1)    // empty
	dev.Access(1000, 0, 1) // hit
	dev.Access(2000, 0, 2) // conflict
	dev.RowClone(5000, 1, 3, 4)
	c := dev.Counters()
	if c.Get("empty") != 2 { // first access + rowclone on closed bank
		t.Errorf("empty = %d, want 2", c.Get("empty"))
	}
	if c.Get("hit") != 1 {
		t.Errorf("hit = %d, want 1", c.Get("hit"))
	}
	if c.Get("conflict") != 1 {
		t.Errorf("conflict = %d, want 1", c.Get("conflict"))
	}
	if c.Get("rowclone") != 1 {
		t.Errorf("rowclone = %d, want 1", c.Get("rowclone"))
	}
}

func TestDeviceBanksAreIndependent(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.Access(0, 0, 10)
	res, err := dev.Access(500, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeEmpty {
		t.Fatalf("bank 1 outcome = %v, want empty (banks must not share row buffers)", res.Outcome)
	}
}

func TestDevicePrechargeAllAndReset(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < dev.NumBanks(); b++ {
		dev.Access(0, b, 42)
	}
	if dev.Counters().Get("empty") == 0 {
		t.Fatal("accesses counted nothing")
	}
	if dev.Reconfigure(DefaultConfig().WithBanks(2 * dev.NumBanks())) {
		t.Fatal("Reconfigure accepted a different bank count")
	}
	if got := dev.Bank(0).OpenRow(); got != 42 {
		t.Fatalf("refused Reconfigure changed bank 0: open row %d, want 42", got)
	}
	if !dev.Reconfigure(DefaultConfig()) {
		t.Fatal("Reconfigure refused the device's own configuration")
	}
	for b := 0; b < dev.NumBanks(); b++ {
		if got := dev.Bank(b).OpenRow(); got != -1 {
			t.Fatalf("bank %d open row = %d after Reconfigure", b, got)
		}
		if got := dev.Bank(b).BusyUntil(); got != 0 {
			t.Fatalf("bank %d busyUntil = %d after Reconfigure", b, got)
		}
	}
	for _, name := range dev.Counters().Names() {
		if got := dev.Counters().Get(name); got != 0 {
			t.Errorf("counter %s = %d after Reconfigure, want 0", name, got)
		}
	}
}

func TestConfigWithBanks(t *testing.T) {
	for _, total := range []int{16, 64, 1024, 8192} {
		cfg := DefaultConfig().WithBanks(total)
		if got := cfg.TotalBanks(); got != total {
			t.Errorf("WithBanks(%d).TotalBanks() = %d", total, got)
		}
	}
	// Fewer banks than groups collapses to one bank per group.
	cfg := DefaultConfig().WithBanks(2)
	if cfg.TotalBanks() != 2 {
		t.Errorf("WithBanks(2) = %d banks", cfg.TotalBanks())
	}
}

func TestRowCloneIsFunctionalAcrossDevice(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.RowClone(0, 2, 100, 200); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < dev.NumBanks(); b++ {
		want := int64(-1)
		if b == 2 {
			want = 200
		}
		if got := dev.Bank(b).OpenRow(); got != want {
			t.Fatalf("bank %d open row = %d after a RowClone in bank 2, want %d", b, got, want)
		}
	}
	if got := dev.Counters().Get("rowclone"); got != 1 {
		t.Fatalf("rowclone = %d, want 1", got)
	}
}
