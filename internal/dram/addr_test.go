package dram

import (
	"testing"
	"testing/quick"
)

func TestAddrMapperRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	for _, scheme := range []MappingScheme{MapRowInterleaved, MapBankXOR} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			m, err := NewAddrMapper(cfg, scheme)
			if err != nil {
				t.Fatal(err)
			}
			check := func(bankRaw uint8, rowRaw uint16, colRaw uint16) bool {
				bank := int(bankRaw) % cfg.TotalBanks()
				row := int64(rowRaw)
				col := int(colRaw) % cfg.RowBytes
				addr := m.Compose(bank, row, col)
				coord := m.Map(addr)
				return coord.Bank == bank && coord.Row == row && coord.Col == col
			}
			if err := quick.Check(check, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAddrMapperXORSpreadsRows(t *testing.T) {
	cfg := DefaultConfig()
	m, err := NewAddrMapper(cfg, MapBankXOR)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive rows at a fixed raw bank field must land in different
	// banks under the XOR scheme.
	banks := make(map[int]bool)
	for row := int64(0); row < 16; row++ {
		addr := (uint64(row)<<4 | 0) << 13 // raw bank field 0
		banks[m.Map(addr).Bank] = true
	}
	if len(banks) < 8 {
		t.Fatalf("XOR mapping only used %d banks for 16 consecutive rows", len(banks))
	}
}

func TestAddrMapperRowInterleavedKeepsBank(t *testing.T) {
	cfg := DefaultConfig()
	m, err := NewAddrMapper(cfg, MapRowInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Compose(3, 100, 0)
	for col := 0; col < cfg.RowBytes; col += 1024 {
		if got := m.Map(base + uint64(col)).Bank; got != 3 {
			t.Fatalf("col %d moved to bank %d", col, got)
		}
	}
}

func TestAddrMapperRejectsBadGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowBytes = 1000 // not a power of two
	if _, err := NewAddrMapper(cfg, MapRowInterleaved); err == nil {
		t.Fatal("expected error for non-power-of-two row size")
	}
	cfg = DefaultConfig()
	cfg.BanksPerGroup = 3
	if _, err := NewAddrMapper(cfg, MapRowInterleaved); err == nil {
		t.Fatal("expected error for non-power-of-two bank count")
	}
}

// TestCoordFlatBankRoundTrip composes an address in every flat bank of a
// multi-channel, multi-rank device and requires Map to land it back in
// that bank, row and column under both schemes.
func TestCoordFlatBankRoundTrip(t *testing.T) {
	cfg := Config{Channels: 2, Ranks: 2, BankGroups: 4, BanksPerGroup: 4, RowBytes: 8192, RowsPerBank: 16}
	for _, scheme := range []MappingScheme{MapRowInterleaved, MapBankXOR} {
		m, err := NewAddrMapper(cfg, scheme)
		if err != nil {
			t.Fatal(err)
		}
		for flat := 0; flat < cfg.TotalBanks(); flat++ {
			row, col := int64(flat)%cfg.RowsPerBank, 64*flat
			want := Coord{Bank: flat, Row: row, Col: col}
			if got := m.Map(m.Compose(flat, row, col)); got != want {
				t.Fatalf("%s: flat bank %d round-tripped to %+v, want %+v", scheme, flat, got, want)
			}
		}
	}
}
