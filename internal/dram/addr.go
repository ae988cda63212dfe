package dram

import (
	"fmt"

	"repro/internal/jsonenum"
)

// Coord locates one DRAM word within the device hierarchy.
type Coord struct {
	Channel   int
	Rank      int
	BankGroup int
	Bank      int // bank index within the bank group
	Row       int64
	Col       int // byte offset within the row
}

// FlatBank returns the global bank index across channels, ranks and groups,
// which is how the rest of the simulator addresses banks.
func (c Coord) FlatBank(cfg Config) int {
	idx := c.Channel
	idx = idx*cfg.Ranks + c.Rank
	idx = idx*cfg.BankGroups + c.BankGroup
	idx = idx*cfg.BanksPerGroup + c.Bank
	return idx
}

// MappingScheme selects how physical addresses are scattered across banks.
type MappingScheme int

const (
	// MapRowInterleaved places consecutive rows in the same bank:
	// low bits = column, middle bits = bank, high bits = row.
	MapRowInterleaved MappingScheme = iota + 1
	// MapBankXOR additionally XORs low row bits into the bank index,
	// emulating the bank-interleaving functions of modern controllers
	// (and of the DRAMA-reverse-engineered mappings) so that consecutive
	// rows of one page spread across banks.
	MapBankXOR
)

// String implements fmt.Stringer.
func (s MappingScheme) String() string {
	switch s {
	case MapRowInterleaved:
		return "row-interleaved"
	case MapBankXOR:
		return "bank-xor"
	default:
		return "unknown"
	}
}

// mappingNames maps the JSON/String form back to the enum.
var mappingNames = map[string]MappingScheme{
	"row-interleaved": MapRowInterleaved,
	"bank-xor":        MapBankXOR,
}

// MarshalJSON encodes the scheme as its String form, so JSON configs read
// "bank-xor" rather than a bare enum ordinal.
func (s MappingScheme) MarshalJSON() ([]byte, error) {
	blob, err := jsonenum.Marshal(s, "mapping", mappingNames)
	if err != nil {
		return nil, fmt.Errorf("dram: %w", err)
	}
	return blob, nil
}

// UnmarshalJSON decodes either the String form ("row-interleaved",
// "bank-xor") or the integer ordinal.
func (s *MappingScheme) UnmarshalJSON(data []byte) error {
	v, err := jsonenum.Unmarshal(data, "mapping", mappingNames)
	if err != nil {
		return fmt.Errorf("dram: %w", err)
	}
	*s = v
	return nil
}

// AddrMapper translates physical addresses to device coordinates and back.
type AddrMapper struct {
	cfg    Config
	scheme MappingScheme

	colBits  uint
	bankBits uint
}

// NewAddrMapper builds a mapper for the device configuration. The row size
// and total bank count must be powers of two.
func NewAddrMapper(cfg Config, scheme MappingScheme) (*AddrMapper, error) {
	m, err := newAddrMapper(cfg, scheme)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// Reconfigure turns m into the mapper NewAddrMapper(cfg, scheme) builds.
// It reports whether cfg was valid and leaves m untouched when not.
func (m *AddrMapper) Reconfigure(cfg Config, scheme MappingScheme) bool {
	next, err := newAddrMapper(cfg, scheme)
	if err != nil {
		return false
	}
	*m = next
	return true
}

func newAddrMapper(cfg Config, scheme MappingScheme) (AddrMapper, error) {
	colBits, ok := log2(uint64(cfg.RowBytes))
	if !ok {
		return AddrMapper{}, fmt.Errorf("dram: row size %d is not a power of two", cfg.RowBytes)
	}
	bankBits, ok := log2(uint64(cfg.TotalBanks()))
	if !ok {
		return AddrMapper{}, fmt.Errorf("dram: total banks %d is not a power of two", cfg.TotalBanks())
	}
	return AddrMapper{cfg: cfg, scheme: scheme, colBits: colBits, bankBits: bankBits}, nil
}

// log2 returns the base-2 log of v if v is a power of two.
func log2(v uint64) (uint, bool) {
	if v == 0 || v&(v-1) != 0 {
		return 0, false
	}
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n, true
}

// Map translates a physical address into a device coordinate.
func (m *AddrMapper) Map(phys uint64) Coord {
	col := int(phys & ((1 << m.colBits) - 1))
	rest := phys >> m.colBits
	bank := int(rest & ((1 << m.bankBits) - 1))
	row := int64(rest >> m.bankBits)
	if m.scheme == MapBankXOR {
		bank ^= int(uint64(row) & ((1 << m.bankBits) - 1))
	}
	return m.split(bank, row, col)
}

// Compose is the inverse of Map: it builds the physical address that lands
// at the given flat bank, row and column. Attack code uses it for memory
// massaging (placing data in a chosen bank).
func (m *AddrMapper) Compose(flatBank int, row int64, col int) uint64 {
	bank := flatBank
	if m.scheme == MapBankXOR {
		bank ^= int(uint64(row) & ((1 << m.bankBits) - 1))
	}
	return (uint64(row)<<m.bankBits|uint64(bank))<<m.colBits | uint64(col)
}

// split decomposes a flat bank index into the hierarchy coordinate.
func (m *AddrMapper) split(flatBank int, row int64, col int) Coord {
	cfg := m.cfg
	bank := flatBank % cfg.BanksPerGroup
	rest := flatBank / cfg.BanksPerGroup
	group := rest % cfg.BankGroups
	rest /= cfg.BankGroups
	rank := rest % cfg.Ranks
	channel := rest / cfg.Ranks
	return Coord{Channel: channel, Rank: rank, BankGroup: group, Bank: bank, Row: row, Col: col}
}

// FlatBankOf is a convenience that maps an address straight to its global
// bank index.
func (m *AddrMapper) FlatBankOf(phys uint64) int {
	return m.Map(phys).FlatBank(m.cfg)
}

// RowOf returns the row index an address maps to.
func (m *AddrMapper) RowOf(phys uint64) int64 {
	return m.Map(phys).Row
}
