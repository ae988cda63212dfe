package sim

import (
	"testing"

	"repro/internal/stats"
)

// TestBackInvalidationMatchesAllCores runs twin 4-core machines, one with
// the LLC evict hook that back-invalidates every core, and requires the
// machine whose hook reaches only the cores that may hold the line to
// stay identical. Seeded loads, stores, strided loops and clflushes from
// every core run over shared and private lines of an LLC far smaller than
// them, so both prefetchers fill and the LLC evicts constantly; each round
// starts with Machine.Reset and ends with an LLC FlushAll. After every step
// every latency, every clock and the L1, L2 and LLC residency of every line
// the steps can reach must match.
func TestBackInvalidationMatchesAllCores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLCBytes, cfg.LLCWays = 32<<10, 4
	cfg.Noise.EventsPerMCycle = 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all.llc.SetEvictHook(func(addr uint64, _ uint8) {
		for _, c := range all.cores {
			c.hier.L1().Invalidate(addr)
			c.hier.L2().Invalidate(addr)
		}
	})

	// Core c owns pages [3c, 3c+3); pages 12 to 15 are shared. Lines one
	// page either side of them are checked too, for stride prefetches.
	const (
		base      = uint64(1) << 32
		pageBytes = 4096
		lineBytes = 64
	)
	lo, hi := base-pageBytes, base+17*pageBytes
	rng := stats.NewRNG(11)
	pick := func(core int) uint64 {
		page := uint64(12 + rng.Intn(4))
		if rng.Bool(0.5) {
			page = uint64(3*core + rng.Intn(3))
		}
		return base + page*pageBytes + uint64(rng.Intn(pageBytes/lineBytes))*lineBytes
	}
	// step applies one operation to both machines and returns both
	// latencies.
	step := func(op, core int, addr, pc uint64, x *Machine) int64 {
		c := x.cores[core]
		switch op {
		case 0:
			return c.Load(addr, pc)
		case 1:
			return c.hier.Store(c.Now(), addr, pc)
		case 2:
			return c.Flush(addr)
		case 3:
			x.llc.FlushAll()
			return 0
		}
		if !x.Reset(cfg) {
			t.Fatal("Reset refused the machine's own configuration")
		}
		return 0
	}
	n := 0
	check := func(op, core int, addr, pc uint64) {
		t.Helper()
		n++
		if got, want := step(op, core, addr, pc, m), step(op, core, addr, pc, all); got != want {
			t.Fatalf("step %d (op %d, core %d, %#x): latency %d, all-cores hook %d", n, op, core, addr, got, want)
		}
		for i, c := range m.cores {
			if c.Now() != all.cores[i].Now() {
				t.Fatalf("step %d: core %d clock %d, all-cores hook %d", n, i, c.Now(), all.cores[i].Now())
			}
		}
		for a := lo; a < hi; a += lineBytes {
			if m.llc.Contains(a) != all.llc.Contains(a) {
				t.Fatalf("step %d: LLC residency of %#x differs", n, a)
			}
			for i, c := range m.cores {
				d := all.cores[i]
				if c.hier.L1().Contains(a) != d.hier.L1().Contains(a) || c.hier.L2().Contains(a) != d.hier.L2().Contains(a) {
					t.Fatalf("step %d: core %d private residency of %#x differs", n, i, a)
				}
			}
		}
	}

	flushes := 0
	for round := 0; round < 4; round++ {
		check(4, 0, 0, 0) // Machine.Reset
		for s := 0; s < 300; s++ {
			core := rng.Intn(4)
			pc := uint64(16*core + rng.Intn(4))
			switch r := rng.Intn(100); {
			case r < 50:
				check(0, core, pick(core), pc)
			case r < 70:
				check(1, core, pick(core), pc)
			case r < 85:
				// A forward strided loop: the IP-stride prefetcher
				// confirms the stride and the streamer the lines.
				addr, stride := pick(core), uint64(lineBytes*(1+rng.Intn(2)))
				for k := 0; k < 8; k++ {
					check(0, core, addr+uint64(k)*stride, uint64(100+core))
				}
			default:
				// clflush a shared line, held by other cores more
				// often than not.
				addr := base + uint64(12+rng.Intn(4))*pageBytes + uint64(rng.Intn(pageBytes/lineBytes))*lineBytes
				if m.cores[(core+1)%4].hier.L2().Contains(addr) {
					flushes++
				}
				check(2, core, addr, 0)
			}
		}
		check(3, 0, 0, 0) // LLC FlushAll
		for s := 0; s < 100; s++ {
			core := rng.Intn(4)
			check(0, core, pick(core), uint64(16*core))
		}
	}
	if flushes == 0 {
		t.Fatal("no clflush hit a line another core held")
	}
}
