package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/pim"
)

// Machine is one fully assembled simulated system.
type Machine struct {
	cfg    Config
	device *dram.Device
	ctrl   *memctrl.Controller
	mapper *dram.AddrMapper
	llc    *cache.Cache
	cores  []*Core

	pei      *pim.PEIEngine
	rowClone *pim.RowCloneEngine
	noise    *Noise

	// trace, while Record has one attached, receives every request
	// memAccess serves. demand is the address Core.Load or the page walker
	// last marked as the one whose fill moves the core clock; only record
	// reads it.
	trace  *Trace
	demand uint64
}

// New builds a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	device, err := dram.NewDevice(cfg.DRAM)
	if err != nil {
		return nil, fmt.Errorf("dram: %w", err)
	}
	ctrl := memctrl.New(device, cfg.Mem)
	mapper, err := dram.NewAddrMapper(cfg.DRAM, cfg.Mapping)
	if err != nil {
		return nil, err
	}

	hcfg := cfg.hierarchyConfig()

	m := &Machine{cfg: cfg, device: device, ctrl: ctrl, mapper: mapper}

	// The shared LLC sits over the memory backend; each core stacks a
	// private L1/L2 on top of it.
	sharedBackend := &memBackend{m: m, proc: -1}
	llc, err := cache.New(hcfg.LLC, sharedBackend)
	if err != nil {
		return nil, fmt.Errorf("llc: %w", err)
	}
	m.llc = llc

	if cfg.Cores < 1 {
		return nil, fmt.Errorf("sim: need at least one core, got %d", cfg.Cores)
	}
	m.cores = make([]*Core, cfg.Cores)
	for i := range m.cores {
		core, err := newCore(m, i, hcfg, llc, sharedBackend)
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		core.hier.FlushOverhead = cfg.Costs.FlushOverhead
		m.cores[i] = core
	}
	// The LLC is inclusive: an LLC eviction back-invalidates the private
	// L1/L2 copies, which is what lets eviction sets displace another
	// core's line. Only the cores that may hold the line are reached: those
	// whose L2 touched it since it filled, and the untracked ones.
	llc.SetEvictHook(func(addr uint64, cores uint8) {
		for i, c := range m.cores {
			if cores&cache.CoreBit(i) != 0 {
				c.hier.L1().Invalidate(addr)
				c.hier.L2().Invalidate(addr)
			}
		}
	})

	m.pei = pim.NewPEIEngine(ctrl, mapper, llc, cfg.PEICosts)
	m.rowClone = pim.NewRowCloneEngine(ctrl, cfg.RowCloneCosts)
	m.noise = newNoise(m, cfg.Noise)
	return m, nil
}

// Reset returns the machine to the exact state New(cfg) would produce,
// rebuilding nothing. A build allocates 5.3 MB in 188 objects, almost all
// of it the cache levels' and TLBs' per-way arrays; DRAM banks hold timing
// state only, one array for the device. Reset reuses every object,
// reconfiguring each component in place, when the new configuration's
// allocation shape matches the old one. It reports whether reuse was
// possible; on false the machine is left untouched and the caller must
// build a fresh one with New.
//
// Reuse requires: same core count, same DRAM bank count, same LLC geometry
// (bytes/ways), and the same prefetcher setting. Everything else (timing,
// row size, defenses, costs, noise seed, LLC latency) reconfigures in
// place. Reset must be provably state-free: the pool-purity test suite in
// internal/exp runs every scenario on pooled and fresh machines and
// requires byte-identical reports.
func (m *Machine) Reset(cfg Config) bool {
	if cfg.Cores != m.cfg.Cores || cfg.Cores < 1 || cfg.EnablePrefetchers != m.cfg.EnablePrefetchers {
		return false
	}
	if cfg.DRAM.Validate() != nil || cfg.DRAM.TotalBanks() != m.cfg.DRAM.TotalBanks() {
		return false
	}
	hcfg := cfg.hierarchyConfig()
	llcCfg := m.llc.Config()
	if hcfg.LLC.SizeBytes != llcCfg.SizeBytes || hcfg.LLC.Ways != llcCfg.Ways || hcfg.LLC.LineBytes != llcCfg.LineBytes {
		return false
	}
	// The mapper is the last step that can refuse, and it is left
	// untouched when it does. Past it every step succeeds, so the
	// machine can never be left half-reconfigured.
	if !m.mapper.Reconfigure(cfg.DRAM, cfg.Mapping) {
		return false
	}
	m.cfg = cfg
	m.device.Reconfigure(cfg.DRAM)
	m.ctrl.Reconfigure(cfg.Mem)
	m.llc.Reconfigure(hcfg.LLC)
	for _, c := range m.cores {
		c.hier.ResetPrivate()
		c.hier.FlushOverhead = cfg.Costs.FlushOverhead
		c.mmu.Reset()
		c.Reset()
	}
	// The private levels are empty, so no core holds a line the LLC lost
	// track of.
	m.llc.ClearUntracked()
	// The engines keep their pointers to the controller, mapper and LLC
	// reconfigured above.
	m.pei.Reconfigure(cfg.PEICosts)
	m.rowClone.Reconfigure(cfg.RowCloneCosts)
	m.noise.reset(cfg.Noise)
	m.trace = nil
	return true
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Device returns the DRAM device.
func (m *Machine) Device() *dram.Device { return m.device }

// Controller returns the memory controller.
func (m *Machine) Controller() *memctrl.Controller { return m.ctrl }

// Mapper returns the physical address mapper.
func (m *Machine) Mapper() *dram.AddrMapper { return m.mapper }

// LLC returns the shared last-level cache.
func (m *Machine) LLC() *cache.Cache { return m.llc }

// PEI returns the PIM-enabled-instructions engine.
func (m *Machine) PEI() *pim.PEIEngine { return m.pei }

// RowClone returns the RowClone engine.
func (m *Machine) RowClone() *pim.RowCloneEngine { return m.rowClone }

// Core returns core i, or nil if out of range.
func (m *Machine) Core(i int) *Core {
	if i < 0 || i >= len(m.cores) {
		return nil
	}
	return m.cores[i]
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// AdvanceNoise injects background DRAM activity (prefetcher fills, page
// table walks of unrelated processes) up to simulated time t. Attack
// harnesses call it at batch boundaries so noise interleaves with probes.
func (m *Machine) AdvanceNoise(t int64) {
	m.noise.AdvanceTo(t)
}

// AddrFor composes the physical address that lands in the given bank, row
// and byte offset — the memory-massaging primitive attackers use to
// co-locate data (Section 4.1 "Before the attack...").
func (m *Machine) AddrFor(bank int, row int64, col int) uint64 {
	return m.mapper.Compose(bank, row, col)
}

// memAccess serves one request that bypasses the caches: a cache miss or
// writeback, an uncached load or a DMA transfer. It maps addr to its bank
// and asks the controller at cycle now on behalf of proc. A partition
// violation surfaces as a worst-case-latency fault rather than an error,
// so no path above it has one to handle. While a trace is attached, the
// request is appended to it.
//
//impact:hotpath
func (m *Machine) memAccess(now int64, addr uint64, proc int) int64 {
	coord := m.mapper.Map(addr)
	res, err := m.ctrl.Access(now, coord.Bank, coord.Row, proc)
	lat := res.Latency
	if err != nil {
		lat = m.cfg.DRAM.Timing.WorstCaseLatency()
	}
	if m.trace != nil {
		m.record(now, addr, proc, lat)
	}
	return lat
}

// memBackend adapts the memory controller to the cache.Level interface so
// cache misses and writebacks reach simulated DRAM.
type memBackend struct {
	m    *Machine
	proc int
}

var _ cache.Level = (*memBackend)(nil)

//impact:hotpath
func (b *memBackend) Access(now int64, addr uint64, write bool) int64 {
	return b.m.memAccess(now, addr, b.proc)
}
