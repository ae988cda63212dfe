package core

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrMassageFailed indicates the attacker could not find enough co-located
// address pairs within its probe budget.
var ErrMassageFailed = errors.New("impact: memory massaging found too few co-located pairs")

// MassageResult is the outcome of timing-based memory massaging: for each
// requested bank slot, a pair of addresses the attacker verified to be
// same-bank different-row — the raw material of Section 4.1's "co-locate
// their data in the same set of DRAM banks" step, obtained without knowing
// the address mapping (as DRAMA reverse-engineers it on real systems).
type MassageResult struct {
	// Pairs holds (probe, partner) physical addresses per discovered
	// bank; probe and partner conflict in the row buffer.
	Pairs [][2]uint64
	// ProbeCount is how many timed accesses the search needed.
	ProbeCount int64
	// Cycles is the simulated time the search took.
	Cycles int64
}

// MassageMemory discovers `banks` same-bank/different-row address pairs by
// timing: two addresses are co-located iff accessing them alternately is
// slow (every access is a row-buffer conflict), and in different banks iff
// alternation is fast (both rows stay open). The search scans candidate
// addresses at row-sized strides against a pivot set, exactly how
// row-buffer attacks bootstrap on unknown mappings.
func MassageMemory(m *sim.Machine, c *sim.Core, banks int) (MassageResult, error) {
	if banks <= 0 {
		return MassageResult{}, fmt.Errorf("impact: non-positive bank request %d", banks)
	}
	cfg := m.Config().DRAM
	rowStride := uint64(cfg.RowBytes)
	totalBanks := cfg.TotalBanks()
	if banks > totalBanks {
		return MassageResult{}, fmt.Errorf("impact: requested %d banks, device has %d", banks, totalBanks)
	}

	res := MassageResult{}
	start := c.Now()

	// Calibrate the conflict threshold from two known-state probes on an
	// arbitrary address.
	base := uint64(0x4000_0000)
	c.TranslateTouch(base)
	c.LoadUncached(base) // open some row
	hit := c.LoadUncached(base)
	res.ProbeCount += 2
	// Scan for the first conflicting partner to learn the conflict
	// latency.
	conflictLat := int64(0)
	for i := uint64(1); i <= uint64(totalBanks)*4; i++ {
		cand := base + i*rowStride*uint64(totalBanks) // vary high bits: same bank under either scheme? timed check decides
		c.TranslateTouch(cand)
		lat := c.LoadUncached(cand)
		res.ProbeCount++
		again := c.LoadUncached(base)
		res.ProbeCount++
		if again > hit+20 {
			conflictLat = again
			break
		}
		_ = lat
	}
	if conflictLat == 0 {
		return MassageResult{}, ErrMassageFailed
	}
	threshold := hit + (conflictLat-hit)/2

	// conflicts reports whether a and b are same-bank different-row.
	conflicts := func(a, b uint64) bool {
		c.TranslateTouch(a)
		c.TranslateTouch(b)
		c.LoadUncached(a)
		latB := c.LoadUncached(b)
		latA := c.LoadUncached(a)
		res.ProbeCount += 3
		return latA > threshold && latB > threshold
	}

	// Greedily collect pairs in distinct banks: a new pair must conflict
	// internally but not with the pivots of already-claimed banks.
	claimed := make([][2]uint64, 0, banks)
	budget := totalBanks * 64
	for i := 0; len(claimed) < banks && i < budget; i++ {
		probe := base + uint64(i+1)*rowStride
		partner := uint64(0)
		for j := 1; j <= totalBanks*2; j++ {
			cand := probe + uint64(j)*rowStride
			res.ProbeCount++
			if conflicts(probe, cand) {
				partner = cand
				break
			}
		}
		if partner == 0 {
			continue
		}
		fresh := true
		for _, pair := range claimed {
			if conflicts(probe, pair[0]) {
				fresh = false
				break
			}
		}
		if fresh {
			claimed = append(claimed, [2]uint64{probe, partner})
		}
	}
	if len(claimed) < banks {
		return MassageResult{}, fmt.Errorf("%w: found %d of %d", ErrMassageFailed, len(claimed), banks)
	}
	res.Pairs = claimed
	res.Cycles = c.Now() - start
	return res, nil
}

// VerifyColocation checks a massage result against the machine's true
// address mapping (tests and documentation; a real attacker cannot do this).
func VerifyColocation(m *sim.Machine, res MassageResult) error {
	mapper := m.Mapper()
	seen := make(map[int]bool, len(res.Pairs))
	for i, pair := range res.Pairs {
		a, b := mapper.Map(pair[0]), mapper.Map(pair[1])
		if a.Bank != b.Bank {
			return fmt.Errorf("pair %d spans banks %d and %d", i, a.Bank, b.Bank)
		}
		if a.Row == b.Row {
			return fmt.Errorf("pair %d shares row %d", i, a.Row)
		}
		if seen[a.Bank] {
			return fmt.Errorf("bank %d claimed twice", a.Bank)
		}
		seen[a.Bank] = true
	}
	return nil
}
