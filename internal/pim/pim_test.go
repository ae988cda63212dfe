package pim

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/stats"
)

func newEngineFixture(t *testing.T) (*PEIEngine, *RowCloneEngine, *memctrl.Controller, *dram.AddrMapper) {
	t.Helper()
	dev, err := dram.NewDevice(dram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := memctrl.New(dev, memctrl.DefaultConfig())
	mapper, err := dram.NewAddrMapper(dram.DefaultConfig(), dram.MapBankXOR)
	if err != nil {
		t.Fatal(err)
	}
	pei := NewPEIEngine(ctrl, mapper, nil, DefaultPEICosts())
	rc := NewRowCloneEngine(ctrl, DefaultRowCloneCosts())
	return pei, rc, ctrl, mapper
}

func TestLocalityMonitorTracksRecency(t *testing.T) {
	m := NewLocalityMonitor(4)
	if m.Observe(0x1000) {
		t.Fatal("first observation reported locality")
	}
	if !m.Observe(0x1008) {
		t.Fatal("same cache line not recognized")
	}
	if m.Observe(0x2000) {
		t.Fatal("new line reported locality")
	}
}

// TestLocalityMonitorEvictsOldest pins least-recently-used replacement.
// The second sequence tells LRU from FIFO: the hit on A makes B the least
// recently touched line, so C must evict B, not A.
func TestLocalityMonitorEvictsOldest(t *testing.T) {
	m := NewLocalityMonitor(2)
	m.Observe(0x1000)
	m.Observe(0x2000)
	m.Observe(0x3000) // evicts 0x1000
	if m.Observe(0x1000) {
		t.Fatal("oldest entry survived capacity eviction")
	}

	const a, b, c = 0x1000, 0x2000, 0x3000
	m = NewLocalityMonitor(2)
	for _, addr := range []uint64{a, b, a, c} {
		m.Observe(addr)
	}
	if !m.Observe(a) {
		t.Fatal("C evicted A: the hit on A did not refresh its recency (FIFO order)")
	}
	if m.Observe(b) {
		t.Fatal("B survived although it was the least recently touched line")
	}
}

// refMonitor is the reference model of LocalityMonitor, an O(capacity)
// LRU that is easy to check by eye: a touch stamps the line with a tick,
// and a miss at capacity scans every entry for the oldest stamp. max < 1
// tracks one line, because the scan finds nothing to evict from an empty
// map.
type refMonitor struct {
	entries map[uint64]int64
	max     int
	tick    int64
}

func newRefMonitor(max int) *refMonitor {
	return &refMonitor{entries: make(map[uint64]int64, max), max: max}
}

func (m *refMonitor) Observe(addr uint64) bool {
	const lineBits = 6
	tag := addr >> lineBits
	m.tick++
	_, hit := m.entries[tag]
	if !hit && len(m.entries) >= m.max {
		var oldTag uint64
		oldTick := m.tick + 1
		for t, when := range m.entries {
			if when < oldTick {
				oldTick, oldTag = when, t
			}
		}
		delete(m.entries, oldTag)
	}
	m.entries[tag] = m.tick
	return hit
}

// TestLocalityMonitorMatchesReference drives the monitor and the reference
// model with the same seeded address streams and requires the same answer
// at every step. Streams draw from fewer lines than the capacity (hits
// only after warm-up), about as many, and many more (evictions dominate);
// the strides spread tags over low and high address bits. In the reset
// streams the monitor is Reset halfway and the reference replaced by a
// fresh one, so a reset monitor must answer exactly as a new one does.
func TestLocalityMonitorMatchesReference(t *testing.T) {
	steps := 50_000
	if testing.Short() {
		steps = 5_000
	}
	for _, max := range []int{-1, 0, 1, 2, 4, 256} {
		lines := 1
		if max > 1 {
			lines = max
		}
		for _, span := range []int{lines/2 + 1, lines, lines + 1, 2 * lines, 8*lines + 3} {
			for _, stride := range []uint64{64, 64 << 17} {
				for _, reset := range []bool{false, true} {
					got, want := NewLocalityMonitor(max), newRefMonitor(max)
					rng := stats.NewRNG(uint64(max+2)<<32 ^ uint64(span)<<8 ^ stride)
					for i := 0; i < steps; i++ {
						if reset && i == steps/2 {
							got.Reset()
							want = newRefMonitor(max)
						}
						addr := uint64(rng.Intn(span))*stride + uint64(rng.Intn(64))
						if g, w := got.Observe(addr), want.Observe(addr); g != w {
							t.Fatalf("max %d span %d stride %#x reset %v: step %d (addr %#x) hit=%v, reference %v",
								max, span, stride, reset, i, addr, g, w)
						}
					}
				}
			}
		}
	}
}

// TestLocalityMonitorFullObserveNoAllocs pins the steady state RunPnM
// drives: a full monitor missing on every fresh line allocates nothing.
func TestLocalityMonitorFullObserveNoAllocs(t *testing.T) {
	m := NewLocalityMonitor(256)
	var line uint64
	fresh := func() {
		if m.Observe(line << 6) {
			t.Fatal("fresh line reported locality")
		}
		line++
	}
	for line < 512 {
		fresh()
	}
	if allocs := testing.AllocsPerRun(1000, fresh); allocs != 0 {
		t.Fatalf("Observe on a full monitor allocates %.1f objects per call", allocs)
	}
}

func TestPEIExecutesNearMemoryOnLowLocality(t *testing.T) {
	pei, _, _, mapper := newEngineFixture(t)
	addr := mapper.Compose(3, 100, 0)
	res, err := pei.Execute(0, addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NearMemory {
		t.Fatal("fresh address executed host-side")
	}
	costs := DefaultPEICosts()
	wantMin := costs.IssueCost + costs.PEIOverhead
	if res.Latency <= wantMin {
		t.Fatalf("latency %d missing DRAM component (> %d expected)", res.Latency, wantMin)
	}
	if res.Outcome != dram.OutcomeEmpty {
		t.Fatalf("outcome = %v, want empty", res.Outcome)
	}
}

func TestPEIHostSideWithMonitorHit(t *testing.T) {
	dev, err := dram.NewDevice(dram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := memctrl.New(dev, memctrl.DefaultConfig())
	mapper, err := dram.NewAddrMapper(dram.DefaultConfig(), dram.MapBankXOR)
	if err != nil {
		t.Fatal(err)
	}
	host := &hostRecorder{}
	pei := NewPEIEngine(ctrl, mapper, host, DefaultPEICosts())
	addr := mapper.Compose(3, 100, 0)
	pei.Execute(0, addr, 0)
	res, err := pei.Execute(1000, addr, 0) // monitor hit -> host side
	if err != nil {
		t.Fatal(err)
	}
	if res.NearMemory {
		t.Fatal("hot address executed near memory")
	}
	if host.calls != 1 {
		t.Fatalf("host path invoked %d times, want 1", host.calls)
	}
	costs := DefaultPEICosts()
	if want := costs.IssueCost + costs.HostExtra + 50; res.Latency != want || res.CompletedAt != 1000+want {
		t.Fatalf("host-side PEI latency %d completed at %d, want %d at %d", res.Latency, res.CompletedAt, want, 1000+want)
	}
	// An async PEI that hits the monitor charges the core only its issue
	// cost and completes once the host path has run.
	res, err = pei.ExecuteAsync(2000, addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NearMemory || host.calls != 2 {
		t.Fatalf("hot async PEI: near memory %v, host path invoked %d times", res.NearMemory, host.calls)
	}
	if res.Latency != costs.AsyncIssueCost {
		t.Fatalf("host-side async PEI latency = %d, want issue cost %d", res.Latency, costs.AsyncIssueCost)
	}
	if want := 2000 + costs.AsyncIssueCost + costs.HostExtra + 50; res.CompletedAt != want {
		t.Fatalf("host-side async PEI completed at %d, want %d", res.CompletedAt, want)
	}
}

type hostRecorder struct{ calls int }

func (h *hostRecorder) Access(_ int64, _ uint64, _ bool) int64 {
	h.calls++
	return 50
}

func TestPEIAsyncIsFireAndForget(t *testing.T) {
	pei, _, _, mapper := newEngineFixture(t)
	addr := mapper.Compose(5, 200, 0)
	res, err := pei.ExecuteAsync(0, addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != DefaultPEICosts().AsyncIssueCost {
		t.Fatalf("async latency = %d, want issue cost %d", res.Latency, DefaultPEICosts().AsyncIssueCost)
	}
	if res.CompletedAt <= res.Latency {
		t.Fatalf("completion %d not after issue", res.CompletedAt)
	}
}

func TestPEIAsyncOpensRow(t *testing.T) {
	pei, _, ctrl, mapper := newEngineFixture(t)
	addr := mapper.Compose(5, 200, 0)
	if _, err := pei.ExecuteAsync(0, addr, 0); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Device().Bank(mapper.Map(addr).Bank).OpenRow(); got != 200 {
		t.Fatalf("open row after async PEI = %d, want 200", got)
	}
}

func TestRowCloneSubmitHonorsMask(t *testing.T) {
	_, rc, ctrl, _ := newEngineFixture(t)
	banks := []int{0, 1, 2, 3}
	res, err := rc.Submit(0, banks, 0b0101, 10, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := ctrl.Device()
	for i, bank := range banks {
		open := dev.Bank(bank).OpenRow()
		if i%2 == 0 && open != 11 {
			t.Errorf("masked-in bank %d open row = %d, want 11", bank, open)
		}
		if i%2 == 1 && open != -1 {
			t.Errorf("masked-out bank %d open row = %d, want untouched", bank, open)
		}
	}
	if res.IssueLatency != DefaultRowCloneCosts().IssueCost {
		t.Errorf("issue latency = %d", res.IssueLatency)
	}
	if got := rc.Counters().Value(CounterOps); got != 2 {
		t.Errorf("dispatched operations = %d, want 2 (one per masked-in bank)", got)
	}
}

func TestRowCloneParallelismBeatsSerial(t *testing.T) {
	_, rc, _, _ := newEngineFixture(t)
	banks := make([]int, 16)
	for i := range banks {
		banks[i] = i
	}
	res, err := rc.Submit(0, banks, ^uint64(0)>>48, 10, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 16 parallel operations must complete far sooner than 16 serialized
	// ones (the PuM channel's advantage).
	serial := int64(16) * (dram.DDR4_2400().TRCD + dram.DDR4_2400().RowCloneFPM)
	if res.CompletedAt-res.IssueLatency >= serial {
		t.Fatalf("parallel rowclone took %d cycles, not better than serial %d",
			res.CompletedAt-res.IssueLatency, serial)
	}
}

func TestRowCloneMeasureLatencyDistinguishesStates(t *testing.T) {
	_, rc, _, _ := newEngineFixture(t)
	// First measure latches dst; second (swapped) finds it open (hit);
	// then an interfering activation forces a conflict.
	first, err := rc.Measure(0, 0, 10, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := rc.Measure(first.CompletedAt+100, 0, 11, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Outcome != dram.OutcomeHit {
		t.Fatalf("swapped measure outcome = %v, want hit", hit.Outcome)
	}
	disturbBank0(t, rc)
	conflict, err := rc.Measure(hit.CompletedAt+2000, 0, 10, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if conflict.Outcome != dram.OutcomeConflict {
		t.Fatalf("post-disturb outcome = %v, want conflict", conflict.Outcome)
	}
	if conflict.Latency <= hit.Latency {
		t.Fatalf("conflict latency %d not above hit %d", conflict.Latency, hit.Latency)
	}
}

// disturbBank0 opens an unrelated row in bank 0, emulating a sender.
func disturbBank0(t *testing.T, rc *RowCloneEngine) {
	t.Helper()
	if _, err := rc.ctrl.Activate(1_000_000, 0, 999, 1); err != nil {
		t.Fatal(err)
	}
}
