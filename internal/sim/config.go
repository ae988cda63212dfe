// Package sim assembles the full simulated system of the paper's Table 2:
// out-of-order x86 cores at 2.6 GHz with rdtscp/cpuid timing, a three-level
// cache hierarchy, an MMU with a DRAM-visiting page-table walker, a memory
// controller with defenses, PEI and RowClone engines, a DMA engine with OS
// software-stack overheads, and deterministic background noise sources.
//
// Everything is measured in simulated CPU cycles on per-core logical clocks;
// no wall-clock time is ever read, so host GC pauses and scheduler jitter
// cannot perturb any measured latency (see docs/architecture.md,
// "Determinism").
package sim

import (
	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/pim"
)

// FrequencyHz is the simulated core clock (Table 2: 2.6 GHz).
const FrequencyHz = 2.6e9

// SoftCosts collects the software-path cost constants calibrated against the
// paper's headline numbers; TestRowBufferGapNearPaper in internal/figures
// holds the calibrated rows inside recorded bands.
type SoftCosts struct {
	// TimerCost is the cost of one rdtscp read.
	TimerCost int64 `json:"timer_cost"`
	// SerializeCost is the cost of the cpuid serialization the paper's
	// receiver pairs with rdtscp for precise measurement.
	SerializeCost int64 `json:"serialize_cost"`
	// LoopOverhead is the per-iteration branch/index cost of the attack
	// loops.
	LoopOverhead int64 `json:"loop_overhead"`
	// DecodeCost is the threshold compare + store per received bit.
	DecodeCost int64 `json:"decode_cost"`
	// SemPost and SemWait are the semaphore synchronization costs of the
	// sender/receiver protocol.
	SemPost int64 `json:"sem_post"`
	SemWait int64 `json:"sem_wait"`
	// FenceBase is the fixed cost of a memory fence before waiting for
	// outstanding operations.
	FenceBase int64 `json:"fence_base"`
	// DMASyscall and DMASetup model the deep software stack of the DMA
	// engine path (context switch, descriptor setup).
	DMASyscall int64 `json:"dma_syscall"`
	DMASetup   int64 `json:"dma_setup"`
	// EvictionMLP is the fraction of DRAM latency exposed per eviction-set
	// load once misses pipeline in the memory controller.
	EvictionMLP float64 `json:"eviction_mlp"`
	// SenderComputeCost is the per-bit message-inspection cost on the
	// sender side (bit test, address computation).
	SenderComputeCost int64 `json:"sender_compute_cost"`
	// MaskComputeCost is the cost of building a RowClone bank mask for a
	// whole batch.
	MaskComputeCost int64 `json:"mask_compute_cost"`
	// FlushOverhead is the serialization cost of a clflush (plus the
	// mfence that must order it) beyond the cache tag probes.
	FlushOverhead int64 `json:"flush_overhead"`
	// SideProbeBookkeeping is the side-channel attacker's per-probe
	// record-keeping cost (per-bank state update, timestamp logging).
	SideProbeBookkeeping int64 `json:"side_probe_bookkeeping"`
}

// DefaultSoftCosts returns the calibrated constants.
func DefaultSoftCosts() SoftCosts {
	return SoftCosts{
		TimerCost:            15,
		SerializeCost:        25,
		LoopOverhead:         5,
		DecodeCost:           5,
		SemPost:              60,
		SemWait:              60,
		FenceBase:            10,
		DMASyscall:           1700,
		DMASetup:             200,
		EvictionMLP:          0.30,
		SenderComputeCost:    120,
		MaskComputeCost:      30,
		FlushOverhead:        250,
		SideProbeBookkeeping: 60,
	}
}

// NoiseConfig parameterizes background DRAM activity (prefetchers and page
// table walkers of unrelated processes; Section 5.2.3).
type NoiseConfig struct {
	// EventsPerMCycle is the expected number of background row
	// activations per million cycles across the whole device.
	EventsPerMCycle float64 `json:"events_per_mcycle"`
	// Seed drives the deterministic noise stream.
	Seed uint64 `json:"seed"`
}

// Config describes a whole simulated system. The JSON form (see FromJSON)
// is the declarative surface of the experiment engine and the HTTP service,
// so every field carries a stable snake_case tag.
type Config struct {
	// DRAM is the device geometry and timing (Table 2 defaults).
	DRAM dram.Config `json:"dram"`
	// Mapping selects the physical-address-to-bank scattering.
	Mapping dram.MappingScheme `json:"mapping"`
	// Mem is the memory controller configuration (defense selection).
	Mem memctrl.Config `json:"mem"`
	// LLCBytes and LLCWays size the shared last-level cache; LLCLatency
	// overrides the CACTI-derived latency when positive.
	LLCBytes   int   `json:"llc_bytes"`
	LLCWays    int   `json:"llc_ways"`
	LLCLatency int64 `json:"llc_latency"`
	// Cores is the number of simulated cores (Table 2: 4).
	Cores int `json:"cores"`
	// Costs are the calibrated software-path constants.
	Costs SoftCosts `json:"costs"`
	// PEI and RowClone cost constants.
	PEICosts      pim.PEICosts      `json:"pei_costs"`
	RowCloneCosts pim.RowCloneCosts `json:"rowclone_costs"`
	// Noise configures background DRAM activity.
	Noise NoiseConfig `json:"noise"`
	// EnablePrefetchers attaches the cache prefetchers (noise sources).
	EnablePrefetchers bool `json:"enable_prefetchers"`
}

// DefaultConfig returns the paper's Table 2 system with an 8 MB shared LLC
// (2 MB/core x 4 cores).
func DefaultConfig() Config {
	return Config{
		DRAM:              dram.DefaultConfig(),
		Mapping:           dram.MapBankXOR,
		Mem:               memctrl.DefaultConfig(),
		LLCBytes:          8 << 20,
		LLCWays:           16,
		Cores:             4,
		Costs:             DefaultSoftCosts(),
		PEICosts:          pim.DefaultPEICosts(),
		RowCloneCosts:     pim.DefaultRowCloneCosts(),
		Noise:             NoiseConfig{EventsPerMCycle: 3, Seed: 0x1337},
		EnablePrefetchers: true,
	}
}

// CyclesToSeconds converts simulated cycles to seconds at the configured
// frequency.
func CyclesToSeconds(cycles int64) float64 {
	return float64(cycles) / FrequencyHz
}

// ThroughputMbps converts bits transferred over a cycle span into megabits
// per second.
func ThroughputMbps(bits int64, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(bits) / CyclesToSeconds(cycles) / 1e6
}

// hierarchyConfig derives the cache hierarchy configuration. An unset
// LLCLatency takes CACTI's latency for the LLC's size and ways.
func (c Config) hierarchyConfig() cache.HierarchyConfig {
	llcLatency := c.LLCLatency
	if llcLatency <= 0 {
		llcLatency = cacti.LLCLatencyWays(float64(c.LLCBytes)/float64(1<<20), c.LLCWays)
	}
	cfg := cache.DefaultHierarchyConfig(c.LLCBytes, c.LLCWays, llcLatency)
	cfg.EnablePrefetchers = c.EnablePrefetchers
	return cfg
}
