package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/memctrl"
)

func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.Noise.EventsPerMCycle = 0
	return cfg
}

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineConstruction(t *testing.T) {
	m := newTestMachine(t)
	if m.NumCores() != 4 {
		t.Errorf("cores = %d, want 4", m.NumCores())
	}
	if m.Device().NumBanks() != 16 {
		t.Errorf("banks = %d, want 16", m.Device().NumBanks())
	}
	if m.Core(-1) != nil || m.Core(4) != nil {
		t.Error("out-of-range Core returned non-nil")
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	// A slice per cache or TLB set would cost thousands of allocations
	// per build; the pin keeps each level a single slice.
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := New(quietConfig()); err != nil {
			t.Fatal(err)
		}
	}); allocs > 400 {
		t.Errorf("New makes %.0f allocations, want <= 400", allocs)
	}
}

func TestMachineRejectsZeroCores(t *testing.T) {
	cfg := quietConfig()
	cfg.Cores = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestCoreClockMonotonic(t *testing.T) {
	m := newTestMachine(t)
	c := m.Core(0)
	check := func(ops []uint8) bool {
		last := c.Now()
		for _, op := range ops {
			switch op % 5 {
			case 0:
				c.Load(uint64(op)*64+0x1000, 0x1)
			case 1:
				c.Rdtscp()
			case 2:
				c.Fence()
			case 3:
				c.LoadUncached(uint64(op) * 8192)
			case 4:
				c.Advance(int64(op))
			}
			if c.Now() < last {
				return false
			}
			last = c.Now()
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreAdvanceIgnoresNegative(t *testing.T) {
	m := newTestMachine(t)
	c := m.Core(0)
	c.Advance(100)
	c.Advance(-50)
	if c.Now() != 100 {
		t.Fatalf("clock = %d, want 100", c.Now())
	}
	c.AdvanceTo(50) // past time: no-op
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo went backwards: %d", c.Now())
	}
}

func TestRdtscpCost(t *testing.T) {
	m := newTestMachine(t)
	c := m.Core(0)
	t0 := c.Rdtscp()
	t1 := c.Rdtscp()
	if t1-t0 != m.Config().Costs.TimerCost {
		t.Fatalf("back-to-back rdtscp delta = %d, want %d", t1-t0, m.Config().Costs.TimerCost)
	}
}

func TestFenceDrainsAsyncOps(t *testing.T) {
	m := newTestMachine(t)
	c := m.Core(0)
	if err := c.ActivateAsync(0, 100); err != nil {
		t.Fatal(err)
	}
	before := c.Now()
	c.Fence()
	if c.Now() <= before {
		t.Fatal("fence did not wait for the outstanding activation")
	}
	// A second fence has nothing to drain beyond its base cost.
	mid := c.Now()
	c.Fence()
	if got := c.Now() - mid; got != m.Config().Costs.FenceBase {
		t.Fatalf("idle fence cost = %d, want %d", got, m.Config().Costs.FenceBase)
	}
}

func TestSemaphoreTransfersTime(t *testing.T) {
	m := newTestMachine(t)
	sender, receiver := m.Core(0), m.Core(1)
	sem := NewSemaphore(m)
	sender.Advance(10_000)
	sem.Post(sender)
	if !sem.Wait(receiver) {
		t.Fatal("Wait failed after Post")
	}
	if receiver.Now() < sender.Now() {
		t.Fatalf("receiver clock %d behind poster %d", receiver.Now(), sender.Now())
	}
}

func TestSemaphoreWaitWithoutPost(t *testing.T) {
	m := newTestMachine(t)
	sem := NewSemaphore(m)
	if sem.Wait(m.Core(0)) {
		t.Fatal("Wait succeeded without a Post")
	}
}

func TestAddrForRoundTrip(t *testing.T) {
	m := newTestMachine(t)
	for bank := 0; bank < m.Device().NumBanks(); bank++ {
		addr := m.AddrFor(bank, 123, 64)
		coord := m.Mapper().Map(addr)
		if coord.Bank != bank {
			t.Fatalf("AddrFor(%d) mapped back to bank %d", bank, coord.Bank)
		}
		if coord.Row != 123 || coord.Col != 64 {
			t.Fatalf("AddrFor round trip = row %d col %d", coord.Row, coord.Col)
		}
	}
}

func TestLoadUncachedFasterSecondTimeSameRow(t *testing.T) {
	m := newTestMachine(t)
	c := m.Core(0)
	addr := m.AddrFor(0, 50, 0)
	c.TranslateTouch(addr)
	first := c.LoadUncached(addr) // opens the row
	second := c.LoadUncached(addr)
	if second >= first {
		t.Fatalf("row-buffer hit %d not faster than activation %d", second, first)
	}
}

func TestLoadCachesTheLine(t *testing.T) {
	m := newTestMachine(t)
	c := m.Core(0)
	c.Load(0x80_0000, 0x1)
	warm := c.Load(0x80_0000, 0x1)
	// Warm load: 1-cycle TLB + 4-cycle L1.
	if warm > 10 {
		t.Fatalf("warm cached load latency = %d, want L1-hit scale", warm)
	}
}

func TestDMATransferDominatedBySoftware(t *testing.T) {
	m := newTestMachine(t)
	c := m.Core(0)
	lat := c.DMATransfer(m.AddrFor(0, 60, 0))
	minimum := m.Config().Costs.DMASyscall + m.Config().Costs.DMASetup
	if lat < minimum {
		t.Fatalf("DMA latency %d below software floor %d", lat, minimum)
	}
}

func TestNoiseDeterminism(t *testing.T) {
	cfg := quietConfig()
	cfg.Noise = NoiseConfig{EventsPerMCycle: 50, Seed: 77}
	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1.AdvanceNoise(5_000_000)
	m2.AdvanceNoise(5_000_000)
	c1 := m1.Device().Counters().Snapshot()
	c2 := m2.Device().Counters().Snapshot()
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("noise diverged for %s: %d vs %d", k, v, c2[k])
		}
	}
	if m1.Device().Counters().Get("empty")+m1.Device().Counters().Get("conflict") == 0 {
		t.Fatal("noise injected no activations")
	}
}

func TestNoiseDisabled(t *testing.T) {
	m := newTestMachine(t)
	m.AdvanceNoise(10_000_000)
	total := m.Device().Counters().Get("hit") + m.Device().Counters().Get("empty") +
		m.Device().Counters().Get("conflict")
	if total != 0 {
		t.Fatalf("disabled noise injected %d accesses", total)
	}
}

func TestPartitionedMachineFaultsGracefully(t *testing.T) {
	cfg := quietConfig()
	cfg.Mem.Defense = memctrl.DefensePartition
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Controller().SetOwner(0, 0); err != nil {
		t.Fatal(err)
	}
	// Core 1 reaching core 0's bank must not panic; every uncached path
	// reports a worst-case-latency fault.
	c := m.Core(1)
	addr := m.AddrFor(0, 10, 0)
	worst := cfg.DRAM.Timing.WorstCaseLatency()
	c.TranslateTouch(addr)
	translate := c.TranslateTouch(addr)
	if lat := c.LoadUncached(addr); lat != translate+worst {
		t.Fatalf("uncached load fault latency = %d, want translation %d + worst case %d", lat, translate, worst)
	}
	if lat, want := c.DMATransfer(addr), cfg.Costs.DMASyscall+cfg.Costs.DMASetup+worst; lat != want {
		t.Fatalf("DMA fault latency = %d, want %d", lat, want)
	}
}

func TestThroughputMbps(t *testing.T) {
	// 2.6e9 cycles = 1 second; 1e6 bits in 1 s = 1 Mb/s.
	if got := ThroughputMbps(1_000_000, int64(FrequencyHz)); got != 1 {
		t.Fatalf("ThroughputMbps = %v, want 1", got)
	}
	if got := ThroughputMbps(100, 0); got != 0 {
		t.Fatalf("zero-cycle throughput = %v, want 0", got)
	}
}

func TestCoreReset(t *testing.T) {
	m := newTestMachine(t)
	c := m.Core(0)
	c.Advance(500)
	if err := c.ActivateAsync(0, 1); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("clock after Reset = %d", c.Now())
	}
	before := c.Now()
	c.Fence()
	if got := c.Now() - before; got != m.Config().Costs.FenceBase {
		t.Fatalf("fence after Reset drained stale ops: %d", got)
	}
}
