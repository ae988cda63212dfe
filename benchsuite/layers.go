package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/exp/pack"
	"repro/internal/figures"
	"repro/internal/memctrl"
	"repro/internal/pim"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/pkg/api"
)

// replayOps is how many of a traced window's ops the layer replay takes.
const replayOps = 256

// replayer re-runs ops through the public functions of each layer in the
// order the server calls them, each call inside a span: decode, expand,
// cache and pack tiers, machine pool, simulator, encode. It is
// single-goroutine, so its spans nest by call order alone.
type replayer struct {
	dir    string
	pack   *pack.Store
	engine *exp.Engine
	pool   *sim.Pool

	trace, parent string // span the next call nests under
	seq           int
	spans         []span
	keys          []string // every run key the replay holds, in first-seen order
	seen          map[string]bool
	sims          []simRecord
	simConfigs    []sim.Config
}

// simRecord is one replayed simulation: simulated cycles, host time, and
// the layer counters it moved.
type simRecord struct {
	cycles int64
	hostNs int64
	counts simCounts
}

// simCounts holds one value per layerCounts entry, in that order.
type simCounts [19]int64

func newReplayer(dir string) (*replayer, error) {
	st, err := pack.Open(dir, pack.WithAuditInterval(0))
	if err != nil {
		return nil, err
	}
	rp := &replayer{dir: dir, pack: st, pool: sim.NewPool(), seen: map[string]bool{}}
	rp.engine = exp.NewEngine(exp.WithStore(tracedStore{rp}))
	return rp, nil
}

func (rp *replayer) close() { rp.pack.Close() }

// timed runs fn inside a span named name, nested under the current span;
// calls fn makes nest under the new one.
func (rp *replayer) timed(name string, fn func() error) error {
	rp.seq++
	id := fmt.Sprintf("%s/%d", rp.trace, rp.seq)
	parent := rp.parent
	rp.parent = id
	start := time.Now()
	err := fn()
	end := time.Now()
	rp.parent = parent
	rp.spans = append(rp.spans, span{Trace: rp.trace, ID: id, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return err
}

// tracedStore is the replay's durable tier: the pack store, with a span
// around every call the result cache makes into it.
type tracedStore struct{ rp *replayer }

func (s tracedStore) Get(ctx context.Context, key string) (blob json.RawMessage, ok bool) {
	s.rp.timed("pack.Get", func() error {
		blob, ok = s.rp.pack.Get(ctx, key)
		return nil
	})
	return blob, ok
}

func (s tracedStore) Put(ctx context.Context, key string, blob json.RawMessage) {
	s.rp.timed("pack.Put", func() error {
		s.rp.pack.Put(ctx, key, blob)
		return nil
	})
}

// replayOp drives one spec through the serving stages: parse, lazy
// expansion, a cache lookup per run (falling through to the pack), compute
// on a miss, then the cached RunSpec path and the response encoding.
func (rp *replayer) replayOp(trace string, specBytes []byte, compute func(exp.Run) (json.RawMessage, error)) error {
	ctx := context.Background()
	rp.trace, rp.parent, rp.seq = trace, "", 0
	c := rp.engine.Cache()
	return rp.timed("replay.op", func() error {
		var spec api.RunSpec
		if err := rp.timed("api.ParseRunSpec", func() (err error) {
			spec, err = api.ParseRunSpec(specBytes)
			return err
		}); err != nil {
			return err
		}
		var x *exp.Expansion
		if err := rp.timed("exp.Spec.Expansion", func() (err error) {
			x, err = exp.Spec(spec).Expansion(exp.MaxJobRuns)
			return err
		}); err != nil {
			return err
		}
		for i := 0; i < x.Total(); i++ {
			var r exp.Run
			if err := rp.timed("exp.Expansion.RunAt", func() (err error) {
				r, err = x.RunAt(i)
				return err
			}); err != nil {
				return err
			}
			var hit bool
			rp.timed("exp.Cache.Get", func() error {
				_, hit = c.Get(ctx, r.Key)
				return nil
			})
			if !hit {
				if err := rp.timed("exp.Cache.Compute", func() error {
					_, err := c.Compute(ctx, r.Key, func() (json.RawMessage, error) { return compute(r) })
					return err
				}); err != nil {
					return err
				}
			}
			if !rp.seen[r.Key] {
				rp.seen[r.Key] = true
				rp.keys = append(rp.keys, r.Key)
			}
		}
		var res *exp.SweepResult
		if err := rp.timed("exp.Engine.RunSpec", func() (err error) {
			res, err = rp.engine.RunSpec(ctx, exp.Spec(spec), 1)
			return err
		}); err != nil {
			return err
		}
		return rp.timed("json.Marshal", func() error {
			_, err := json.Marshal(res)
			return err
		})
	})
}

// replayRunOps replays covert-channel ops against the answers the server
// gave. With seedServed, runs the server answered from its pack are put
// into the replay's pack first, so the replay reads them from the same
// tier.
func (rp *replayer) replayRunOps(ops []keptOp, seedServed bool) error {
	for i, op := range ops {
		served := make(map[string]json.RawMessage, len(op.runs))
		for j, rr := range op.runs {
			served[rr.Key] = rr.Report
			if seedServed && !slices.Contains(op.simulated, j) {
				rp.pack.Put(context.Background(), rr.Key, rr.Report)
			}
		}
		err := rp.replayOp(fmt.Sprintf("replay-%d", i), op.spec, func(r exp.Run) (json.RawMessage, error) {
			blob, ok := served[r.Key]
			if !ok {
				return nil, fmt.Errorf("replay expanded run %s, which the server did not answer", r.Key)
			}
			return rp.simulate(r, blob)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// covert maps the covert-channel scenarios the workloads use to their
// protocol and message seed, mirroring the exp scenario registry.
var covert = map[string]struct {
	span string
	seed uint64
	run  func(*sim.Machine, []bool, core.Options) (core.Result, error)
}{
	"covert-pnm": {"core.RunPnM", 101, core.RunPnM},
	"covert-pum": {"core.RunPuM", 102, core.RunPuM},
}

// simulate re-runs r on a pooled machine and requires the simulated cycle
// count to equal the served report's transmission time; it returns the
// served bytes, which the cache then stores.
func (rp *replayer) simulate(r exp.Run, served json.RawMessage) (json.RawMessage, error) {
	proto, ok := covert[r.Scenario]
	if !ok {
		return nil, fmt.Errorf("replay has no protocol for scenario %q", r.Scenario)
	}
	res, err := rp.runCovert(r.Config, proto.span, proto.seed, proto.run, r.Scale.Bits())
	if err != nil {
		return nil, err
	}
	want, err := transmissionCycles(served)
	if err != nil {
		return nil, err
	}
	if res.Cycles != want {
		return nil, fmt.Errorf("replay diverged on run %s: simulated %d cycles, server reported %d", r.Key, res.Cycles, want)
	}
	return served, nil
}

// runCovert runs one covert transmission on a pooled machine and records
// its cycles, host time and layer counters.
func (rp *replayer) runCovert(cfg sim.Config, name string, seed uint64,
	run func(*sim.Machine, []bool, core.Options) (core.Result, error), bits int) (core.Result, error) {
	var m *sim.Machine
	if err := rp.timed("sim.Pool.Get", func() (err error) {
		m, err = rp.pool.Get(cfg)
		return err
	}); err != nil {
		return core.Result{}, err
	}
	defer rp.pool.Put(m)
	rp.simConfigs = append(rp.simConfigs, cfg)
	msg := core.RandomMessage(bits, seed)
	before := readCounts(m)
	var res core.Result
	start := time.Now()
	err := rp.timed(name, func() (err error) {
		res, err = run(m, msg, core.Options{})
		return err
	})
	if err != nil {
		return core.Result{}, err
	}
	rp.sims = append(rp.sims, simRecord{cycles: res.Cycles, hostNs: time.Since(start).Nanoseconds(),
		counts: readCounts(m).minus(before)})
	return res, nil
}

// transmissionCycles reads the "transmission time" row of a covert report.
func transmissionCycles(report json.RawMessage) (int64, error) {
	rep, err := exp.DecodeReport(report)
	if err != nil {
		return 0, err
	}
	for _, row := range rep.Rows {
		if row.Label == "transmission time" {
			return strconv.ParseInt(strings.TrimSuffix(row.Measured, " cyc"), 10, 64)
		}
	}
	return 0, fmt.Errorf("report %q has no transmission time row", rep.ID)
}

// readCounts sums each layer's counters over the machine's cores.
func readCounts(m *sim.Machine) simCounts {
	var c simCounts
	for i := 0; i < m.NumCores(); i++ {
		h := m.Core(i).Hierarchy()
		c[0] += h.L1().Counters().Value(cache.CounterHit)
		c[1] += h.L1().Counters().Value(cache.CounterMiss)
		c[2] += h.L2().Counters().Value(cache.CounterHit)
		c[3] += h.L2().Counters().Value(cache.CounterMiss)
		mmu := m.Core(i).MMU().Counters()
		c[7] += mmu.Value(tlb.CounterL1Hit)
		c[8] += mmu.Value(tlb.CounterL2Hit)
		c[9] += mmu.Value(tlb.CounterWalk)
	}
	llc := m.LLC().Counters()
	c[4], c[5], c[6] = llc.Value(cache.CounterHit), llc.Value(cache.CounterMiss), llc.Value(cache.CounterWriteback)
	ctrl := m.Controller().Counters()
	c[10], c[11] = ctrl.Value(memctrl.CounterRequests), ctrl.Value(memctrl.CounterACTPadded)
	dev := m.Device().Counters()
	c[12], c[13], c[14], c[15] = dev.Value(dram.CounterHit), dev.Value(dram.CounterEmpty),
		dev.Value(dram.CounterConflict), dev.Value(dram.CounterRowClone)
	pei := m.PEI().Counters()
	c[16], c[17] = pei.Value(pim.CounterMemorySide), pei.Value(pim.CounterHostSide)
	c[18] = m.RowClone().Counters().Value(pim.CounterOps)
	return c
}

func (c simCounts) minus(o simCounts) simCounts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// replayFigures drives every paper artifact through the serving stages as
// a figure-replay spec and returns the reports in registry order.
func (rp *replayer) replayFigures() ([]figures.Report, error) {
	var reps []figures.Report
	for _, id := range figures.IDs() {
		spec := fmt.Sprintf(`{"scenario":%q,"scale":"quick"}`, id)
		var rep figures.Report
		err := rp.replayOp("figures-"+id, []byte(spec), func(exp.Run) (json.RawMessage, error) {
			var blob json.RawMessage
			err := rp.timed("figures.Run", func() (err error) {
				if rep, err = figures.Run(id, figures.ScaleQuick); err != nil {
					return err
				}
				blob, err = json.Marshal(rep)
				return err
			})
			return blob, err
		})
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// paperTargets are the paper numbers paper_abs_err_pct compares against:
// the Section 3.1 row-buffer gap and Figure 9 at the default 8 MB LLC.
var paperTargets = []struct {
	figure, row string
	paper       float64
}{
	{"§3.1", "conflict - hit", 74},
	{"Figure 9", "IMPACT-PnM", 8.2},
	{"Figure 9", "IMPACT-PuM", 14.8},
	{"Figure 9", "DRAMA-clflush", 2.3},
	{"Figure 9", "DMA engine", 0.81},
}

// paperError is the mean relative error, in percent, of the measured
// values against paperTargets.
func paperError(reps []figures.Report) (float64, error) {
	var sum float64
	for _, t := range paperTargets {
		v, err := measuredValue(reps, t.figure, t.row)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(v-t.paper) / t.paper * 100
	}
	return sum / float64(len(paperTargets)), nil
}

// measuredValue reads a row's measured number: "N cyc" rows directly, and
// Figure 9 rows at the 8 MB point.
func measuredValue(reps []figures.Report, figure, row string) (float64, error) {
	for _, rep := range reps {
		if rep.ID != figure {
			continue
		}
		for _, r := range rep.Rows {
			if r.Label != row {
				continue
			}
			for _, field := range strings.Fields(r.Measured) {
				if v, ok := strings.CutPrefix(field, "8MB:"); ok {
					return strconv.ParseFloat(v, 64)
				}
			}
			return strconv.ParseFloat(strings.TrimSuffix(r.Measured, " cyc"), 64)
		}
	}
	return 0, fmt.Errorf("no %q row in %q", row, figure)
}

// firstOps picks the k lowest-numbered ops. The traced half numbers its
// ops from tracedBase whatever the timing, so these ops, and every count
// their replay reads, depend on the seed alone.
func firstOps(ops []keptOp, k int) []keptOp {
	out := append([]keptOp(nil), ops...)
	sort.Slice(out, func(i, j int) bool { return out[i].n < out[j].n })
	return out[:min(k, len(out))]
}

// allocsPer counts heap allocations over fn, per unit of n.
func allocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return ratio(float64(after.Mallocs-before.Mallocs), float64(n))
}

// unitCost times fn in batches until it has run 20ms, five times, and
// returns the median ns per call.
func unitCost(fn func()) float64 {
	reps := make([]float64, 0, 5)
	for r := 0; r < 5; r++ {
		n, start := 0, time.Now()
		for time.Since(start) < 20*time.Millisecond {
			for j := 0; j < 256; j++ {
				fn()
			}
			n += 256
		}
		reps = append(reps, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(reps)
}

// measureUnitCosts loops over one public call per layer on a default
// machine. Each clock advances far enough that no call waits on a busy
// bank; the miss loop walks fresh DRAM rows so the LLC never hits.
func measureUnitCosts(m *metricSet) error {
	mach, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return err
	}
	var now int64
	l1 := mach.Core(0).Hierarchy().L1()
	addr := mach.AddrFor(0, 1, 0)
	m.set("cache.access_hit_ns", unitCost(func() { now += 10; l1.Access(now, addr, false) }))

	llc, rows := mach.LLC(), mach.Device().Config().RowsPerBank
	var k int64
	m.set("cache.access_miss_ns", unitCost(func() {
		now += 300
		k++
		llc.Access(now, mach.AddrFor(int(k%16), (k/16)%rows, 0), false)
	}))

	mmu := mach.Core(0).MMU()
	m.set("tlb.translate_ns", unitCost(func() { now += 10; k++; mmu.Translate(now, uint64(k%32)<<12, false) }))

	ctrl, dev := mach.Controller(), mach.Device()
	if _, err := ctrl.Access(now, 0, 0, 0); err != nil {
		return err
	}
	m.set("memctrl.access_ns", unitCost(func() { now += 500; k++; ctrl.Access(now, int(k%16), (k/16)%2*8, 0) }))
	m.set("dram.access_ns", unitCost(func() { now += 200; dev.Access(now, 0, 5) }))

	pei := mach.PEI()
	if _, err := pei.Execute(now, addr, 0); err != nil {
		return err
	}
	m.set("pim.pei.execute_ns", unitCost(func() { now += 500; k++; pei.Execute(now, mach.AddrFor(int(k%16), 3, 0), 0) }))

	rc, banks := mach.RowClone(), make([]int, 16)
	for i := range banks {
		banks[i] = i
	}
	if _, err := rc.Submit(now, banks, 0xffff, 1, 2, 0); err != nil {
		return err
	}
	m.set("pim.rowclone.submit_ns", unitCost(func() { now += 5000; rc.Submit(now, banks, 0xffff, 1, 2, 0) }))
	return nil
}

// layerMetrics fills the per-layer metrics the replay and the probe
// measure. stage names the trace prefix whose spans stand for the
// workload's serving stages, and specs the specs those traces replayed.
func (rp *replayer) layerMetrics(m *metricSet, stage string, specs [][]byte) error {
	named := func(name string) []float64 { return durations(rp.spans, name, stage) }
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	runAt := named("exp.Expansion.RunAt")
	m.set("api.decode_us", median(named("api.ParseRunSpec"))/1e3)
	m.set("exp.expand_us_per_run", ratio(sum(named("exp.Spec.Expansion"))+sum(runAt), float64(len(runAt)))/1e3)
	m.set("exp.encode_us", median(named("json.Marshal"))/1e3)
	m.set("exp.engine.runspec_us", median(named("exp.Engine.RunSpec"))/1e3)
	m.set("exp.pack.put_us", median(durations(rp.spans, "pack.Put", ""))/1e3)
	m.set("sim.pool.get_us", median(durations(rp.spans, "sim.Pool.Get", ""))/1e3)

	// Allocation counts come from untimed loops over the same inputs.
	parsed := make([]exp.Spec, 0, len(specs))
	results := make([]*exp.SweepResult, 0, len(specs))
	for _, b := range specs {
		spec, err := exp.ParseSpec(b)
		if err != nil {
			return err
		}
		res, err := rp.engine.RunSpec(context.Background(), spec, 1)
		if err != nil {
			return err
		}
		parsed, results = append(parsed, spec), append(results, res)
	}
	m.set("exp.expand_allocs_per_run", allocsPer(len(runAt), func() {
		for _, spec := range parsed {
			x, err := spec.Expansion(exp.MaxJobRuns)
			if err != nil {
				continue
			}
			for i := 0; i < x.Total(); i++ {
				x.RunAt(i)
			}
		}
	}))
	m.set("exp.encode_allocs", allocsPer(len(results), func() {
		for _, res := range results {
			json.Marshal(res)
		}
	}))
	configs := rp.simConfigs[:min(64, len(rp.simConfigs))]
	m.set("sim.pool.get_allocs", allocsPer(len(configs), func() {
		for _, cfg := range configs {
			if mach, err := rp.pool.Get(cfg); err == nil {
				rp.pool.Put(mach)
			}
		}
	}))
	ps := rp.pool.Stats()
	m.set("sim.pool.hit_ratio", ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses)))

	// Hit costs of the two tiers, over every key the replay stored.
	ctx := context.Background()
	c := rp.engine.Cache()
	m.set("exp.cache.get_ns", unitCost(func() {
		for _, key := range rp.keys {
			c.Get(ctx, key)
		}
	})/float64(len(rp.keys)))
	gets := make([]float64, 0, len(rp.keys))
	for _, key := range rp.keys {
		start := time.Now()
		if _, ok := rp.pack.Get(ctx, key); !ok {
			return fmt.Errorf("replay pack lost run %s", key)
		}
		gets = append(gets, float64(time.Since(start).Nanoseconds()))
	}
	m.set("exp.pack.get_us", median(gets)/1e3)
	if err := rp.pack.Close(); err != nil {
		return err
	}
	start := time.Now()
	st, err := pack.Open(rp.dir, pack.WithAuditInterval(0))
	if err != nil {
		return err
	}
	m.set("exp.pack.open_ms", float64(time.Since(start).Nanoseconds())/1e6)
	rp.pack = st

	// Simulator counters per replayed run.
	var cycles, hostNs float64
	var counts [len(simCounts{})]float64
	for _, s := range rp.sims {
		cycles += float64(s.cycles)
		hostNs += float64(s.hostNs)
		for i, v := range s.counts {
			counts[i] += float64(v)
		}
	}
	runs := float64(len(rp.sims))
	for i, name := range layerCounts {
		m.set(name, ratio(counts[i], runs))
	}
	m.set("dram.row_hit_ratio", ratio(counts[12], counts[12]+counts[13]+counts[14]))
	m.set("core.sim_kcycles_per_run", ratio(cycles, runs)/1e3)
	m.set("core.host_ns_per_sim_cycle", ratio(hostNs, cycles))
	return nil
}

// probe measures what every traced run reports whatever its workload:
// the unit costs, machine assembly, one PnM and one PuM run on the
// default machine, and every paper artifact through the serving stages.
// It returns the artifacts' reports.
func (rp *replayer) probe(m *metricSet) ([]figures.Report, error) {
	if err := measureUnitCosts(m); err != nil {
		return nil, err
	}
	news := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := sim.New(sim.DefaultConfig()); err != nil {
			return nil, err
		}
		news = append(news, float64(time.Since(start).Nanoseconds()))
	}
	m.set("sim.new_ms", median(news)/1e6)
	for _, name := range []string{"covert-pnm", "covert-pum"} {
		proto := covert[name]
		rp.trace, rp.parent = "probe-"+name, ""
		runs := make([]float64, 0, 5)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := rp.runCovert(sim.DefaultConfig(), proto.span, proto.seed, proto.run, figures.ScaleQuick.Bits()); err != nil {
				return nil, err
			}
			runs = append(runs, float64(time.Since(start).Nanoseconds()))
		}
		m.set("core.run_"+strings.TrimPrefix(name, "covert-")+"_ms", median(runs)/1e6)
	}
	reps, err := rp.replayFigures()
	if err != nil {
		return nil, err
	}
	for _, s := range rp.spans {
		if id, ok := strings.CutPrefix(s.Trace, "figures-"); ok && s.Name == "figures.Run" {
			m.set(figureMetric(id), float64(s.dur())/1e6)
		}
	}
	paperErr, err := paperError(reps)
	if err != nil {
		return nil, err
	}
	m.set("figures.paper_abs_err_pct", paperErr)
	return reps, nil
}
