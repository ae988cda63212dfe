// Command impact-suite is the repository's benchmark: four workloads
// against the experiment service and the simulator behind it, each
// measured end to end and, in a traced run, layer by layer. It is its own
// module (so the root module's `go test ./...` does not build it) and is
// run through run.sh, which builds it from source under .bench_build/:
//
//	bash benchsuite/run.sh --workload cold-sweep --seed 3 --seconds 20 --trace 0
//	bash benchsuite/run.sh -suite -runs 5 -seed 1 -trace 1 -out record.json
//	bash benchsuite/run.sh -compare ../parent-checkout .
//	bash benchsuite/run.sh -update
//
// One workload run prints the host (name, CPU, nproc, GOMAXPROCS, Go
// version, the data-dir filesystem), the host gauge, every metric by name
// with its unit, and as its last line the JSON result: correct,
// attempted, failed and metrics. It exits nonzero when any correctness
// check fails. Inputs come from -seed alone: the same seed makes the same
// inputs. -suite runs every workload -runs times (seeds
// seed..seed+runs-1), plus one traced run each with -trace 1, prints the
// same tables and writes the runs as one JSON record to -out.
//
// # Process model
//
// The suite process is the load generator: one client on one connection,
// retries off, sending each op as soon as the previous one completes. On
// a host of two shared cores, a second client measured the scheduler: the
// same runs spread about twice as wide over six seeds. For every workload
// the suite re-executes its own binary as a child that wires
// exp.NewEngine and exp.NewServer the way cmd/impact-server does,
// memory-only or over pack.Open plus exp.NewJournal, listening on
// loopback; the server spreads a sweep's runs over its own workers as
// usual. The child also serves harness routes beside the service:
// /_bench/runtime (getrusage CPU, runtime/metrics heap allocations and GC
// cycles, peak RSS), /_bench/figures (one quick paper artifact, never
// from the result cache), and the span switches. Server cost per op is
// the child's counters over the window, so it leaves out the client's
// cost. A failed op counts as failed; it does not abort the run.
//
// # Workloads
//
//   - warm-run: each POST /v1/run of a 2x2 covert-pnm grid (llc_bytes
//     4/8 MiB x mem.defense none/crp, noise seed = -seed) is four
//     memory-tier hits after one priming request: decode, expansion and
//     key hashing, the memory tier, encoding and HTTP, no simulation.
//     Check: every body is byte-identical to the primed one and carries
//     X-Cache: hit.
//   - cold-sweep: each POST /v1/run of covert-pnm over llc_bytes 4/8 MiB
//     carries a unique noise seed in its config, so it runs two
//     simulations: sim.Pool and Machine.Reset, the PnM protocol, caches,
//     TLB, controller, DRAM and PEI. Checks: every answer is a miss;
//     afterwards 32 seeded specs from the last 2000, posted again, return
//     byte-identical bodies with X-Cache: hit.
//   - durable-jobs: set-up has a first server fill a pack store and job
//     journal with 18 000 covert-pum results, drain on SIGTERM, and a
//     second server restart over the same data dir. Each job is a 4-point
//     noise-seed grid: three stored results (read from the pack, since the
//     memory tier holds fewer entries than the fixture cycles through) and
//     one fresh simulation, so every job is 3 pack reads, 1 simulation, 1
//     pack append and the journal's fsynced writes. The job drains its
//     NDJSON stream and waits for its status. Checks: every job ends done
//     with hits 3 and misses 1, and the pack's hit counter grows by
//     exactly 3 per job.
//   - paper-figures: each op is the quick suite, its 14 artifacts
//     requested one after another, after one warm-up suite. It runs what
//     cold-sweep does not: fresh sim.New per experiment, DRAMA eviction
//     sets, RowClone, the genomics side channel and the defense workloads.
//     It ignores -seed, because the artifacts fix their own seeds. Check:
//     the SHA-256 of each rendered suite equals
//     testdata/paper-figures-quick.sha256, which only -update rewrites.
//
// Set-up is timed from the start of the workload to its first timed op:
// the durable fixture (once), then the median of five child starts, each
// with its priming op and, on warm-run and cold-sweep, a warm-up of 500
// and 100 ops that brings the heap, GC pacing, machine pool and
// connection to their steady state.
//
// # End-to-end metrics (untraced runs)
//
//	metric                 unit   bound  meaning
//	setup_s                s      25%    set-up time, as above
//	throughput_ops_s       ops/s  25%    ops per second of load; an op is a request, a job or a suite
//	latency_p50_ms         ms     25%    exact, from every op of the window
//	server_cpu_ms_per_op   ms     25%    child user+sys CPU per op
//	server_allocs_per_op   count  10%    child heap objects allocated per op
//
// Each is taken over the whole window, and every timing is scaled to the
// reference host by the host gauge (gauge.go), which samples a fixed piece
// of work between ops. Every metric is nonzero on every workload; failed
// ops are counted in the result line. Tail latency is reported per layer
// (client.request_p99_us), not end to end: over ten seeds the p90 of
// durable-jobs spread up to 58% of its median, since a neighbour's disk
// burst stalls a run's slowest jobs, and paper-figures has only about 14
// suites a window.
//
// # Spreads
//
// A bound is only as useful as runs of unchanged code are steady. On the
// reference host, two sets of ten 20 s runs per workload (seeds 101-110,
// then 201-210) gave interquartile ranges, as a share of the median
// (statistics.quantiles(values, n=4)), of:
//
//	workload        throughput  latency_p50  cpu/op     allocs/op  setup
//	warm-run        11.7, 7.4   9.7, 3.8     9.6, 3.2   0.0, 0.0   13.8, 4.0
//	cold-sweep       7.1, 3.3   3.0, 2.7    10.6, 3.6   2.7, 2.2    7.0, 3.7
//	durable-jobs     8.7, 5.7   6.6, 4.8     7.5, 5.5   0.5, 0.3   11.5, 7.0
//	paper-figures    4.5, 2.1   4.3, 3.1     4.9, 3.7   0.0, 0.0   10.1, 9.3
//
// and the two sets' medians were at most 5.4% apart (set-up 7.5%). The
// same timings without the gauge's scaling spread 10-26% in the first set
// and 3-13% in the second: the first set ran while the gauge itself moved
// 9-15% from run to run, the second while it moved 5-9%. How steady the
// timings are depends on how busy the host's neighbours are, which is why
// the timing bounds are 25%.
//
// # Traced run (-trace 1)
//
// The window is split: the first half runs untraced, the second with
// spans on. Every op records a root span on the client (op.run, op.job or
// op.figures; jobs add job.submit, job.stream and job.wait), and the child
// records a server.handler span around each request. Spans join through
// the X-Request-ID the load generator sets and carry name, start, end,
// parent and self time (duration minus what the children cover). After
// the window a layer replay takes the traced half's first 256 ops
// (numbered from a fixed base, so their inputs, and every count the
// replay reads, depend on the seed alone) and calls the public functions
// in the server's order, each inside a span: api.ParseRunSpec,
// Spec.Expansion and RunAt, Cache.Get (falling through to a pack store's
// Get), on a miss sim.Pool.Get, core.RunPnM or core.RunPuM, and the pack
// Put, then Engine.RunSpec on the cached path and json.Marshal. Each
// replayed run reads the layer counters, and its simulated cycle count
// must equal the transmission time in the server's report, or the replay
// has diverged and the run fails. A probe then
// measures, whatever the workload, the layer unit costs, sim.New, one
// default PnM and PuM run, and all 14 artifacts through the same stages
// (this is paper-figures' replay, and its rendering must match the pinned
// checksum). Workloads that run no jobs also get 16 small probe jobs. All
// spans go to .bench_build/trace/<workload>.spans.json. Per-layer metrics,
// and which end-to-end metric each should move:
//
//   - pkg/client and exp.Server: client.request_p50_us,
//     client.request_p99_us, server.handler_p50_us, http.transport_p50_us
//     (the client's root span minus the server spans it covers). They move
//     latency_p50_ms on warm-run. server.alloc_kb_per_op
//     (child heap bytes per op, untraced half) moves server_cpu_ms_per_op
//     on every workload; on cold-sweep it spreads about 10% over seeds,
//     since the sync.Pool-backed machine pool re-creates machines at
//     random after GC, too wide for a bound.
//   - pkg/api and internal/exp stages: api.decode_us,
//     exp.expand_us_per_run, exp.expand_allocs_per_run, exp.cache.get_ns
//     (a memory hit), exp.encode_us, exp.encode_allocs,
//     exp.engine.runspec_us (the cached RunSpec path, no HTTP). They move
//     server_cpu_ms_per_op, server_allocs_per_op and latency_p50_ms on
//     warm-run and stay flat on cold-sweep.
//   - internal/exp cache counters from /v1/metrics: exp.cache.hit_ratio,
//     exp.cache.computes_per_op, exp.cache.dedup_hits_per_op,
//     exp.cache.computes_per_s (simulations per second). The last moves
//     throughput_ops_s on cold-sweep.
//   - internal/exp/pack and the jobs path: exp.pack.open_ms (reopening the
//     replay's pack) and exp.server.new_ms (NewServer in the child,
//     journal recovery included) move setup_s on durable-jobs;
//     exp.pack.get_us, exp.pack.put_us, exp.pack.hits_per_op (3 on
//     durable-jobs), exp.pack.stores_per_op (1), exp.pack.index_writes_per_kop,
//     exp.jobs.submit_p50_us, exp.jobs.stream_p50_us and
//     exp.jobs.wait_p50_us move latency_p50_ms and throughput_ops_s on
//     durable-jobs and stay flat on warm-run.
//   - internal/sim: sim.pool.get_us, sim.pool.get_allocs and
//     sim.pool.hit_ratio move server_cpu_ms_per_op on cold-sweep; sim.new_ms
//     moves latency_p50_ms on paper-figures.
//   - internal/core: core.run_pnm_ms, core.run_pum_ms,
//     core.sim_kcycles_per_run, core.host_ns_per_sim_cycle and
//     core.sim_mcycles_per_s (simulated Mcycles per host second in the
//     window) move throughput_ops_s on cold-sweep.
//   - internal/cache, tlb, memctrl, dram and pim: exact per-run counts
//     from each layer's Counters(), summed over cores
//     (cache.{l1,l2,llc}.{hits,misses}_per_run, cache.llc.writebacks_per_run,
//     tlb.{l1_hits,l2_hits,walks}_per_run, memctrl.{requests,act_padded}_per_run,
//     dram.{row_hits,row_empty,row_conflicts,rowclones}_per_run,
//     dram.row_hit_ratio, pim.pei.{memory_side,host_side}_per_run,
//     pim.rowclone.ops_per_run), and ns/op loops over one public call each
//     (cache.access_hit_ns, cache.access_miss_ns, tlb.translate_ns,
//     memctrl.access_ns, dram.access_ns, pim.pei.execute_ns,
//     pim.rowclone.submit_ns). They move cold-sweep throughput. On
//     paper-figures, whose artifacts build machines the harness cannot
//     watch, the counts come from the probe's default runs.
//   - internal/figures: figures.<id>_ms for each of the 14 IDs moves
//     latency_p50_ms on paper-figures; figures.paper_abs_err_pct is the
//     mean relative error against the paper for the Section 3.1 gap
//     (74 cycles) and Figure 9 at 8 MB (PnM 8.2, PuM 14.8, DRAMA-clflush
//     2.3 and DMA 0.81 Mb/s).
//   - The harness: harness.gauge_ms (the mean host gauge sample, against
//     the reference sample in gauge.go), harness.trace_overhead_pct (traced
//     half's p50 over the untraced half's), harness.server_peak_rss_mb,
//     harness.client_cpu_ms_per_op.
//
// # Comparator
//
// -compare [-workload W] [-seed N] [-seconds S] BASE_DIR HEAD_DIR (flags
// before the directories) takes two repository checkouts, builds the
// suite in each, and runs them in one session: 10 pairs per workload (or
// only -workload), pair i at seed -seed+i with the -seconds window, the
// two sides back to back and alternating which goes first. Host speed
// drifts over minutes on a small shared VM and the host gauge takes out
// most of that, not all, so only runs taken side by side are compared;
// records from different sessions are not. It prints one row per workload and end-to-end metric:
// each side's median and quartiles (as Python's statistics.quantiles
// computes them), the pairs the head won, and a verdict under the bounds
// in BENCHMARK.json. A row is regressed when the head's median is worse
// than the base's by more than the bound, improved when it is better by
// more than the base's interquartile range and the head wins at least 9
// of 10 pairs, and unresolved when the base's own interquartile range
// exceeds the bound, unless every head run beats every base run. A run
// that fails its checks stops the comparison; any regression makes the
// command exit 1.
//
// testdata/baseline.json records what this benchmark measured when it
// was defined, with the host it ran on: 5 untraced runs per workload at
// seeds 1..5 and 1 traced run at seed 1 (-suite -runs 5 -seed 1 -trace 1).
// It documents the starting point and the exact per-layer counts; it is
// not a reference later runs are judged against.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/figures"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// scratchDir holds run data dirs and span files, under the directory the
// suite runs from.
const scratchDir = ".bench_build"

// record is a set of runs on one host, as -suite writes it.
type record struct {
	Host hostInfo    `json:"host"`
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	runResult
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impact-suite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: warm-run, cold-sweep, durable-jobs or paper-figures")
	seed := fs.Int64("seed", 1, "input seed; the same seed makes the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 for a traced run: per-layer metrics and a spans file")
	suite := fs.Bool("suite", false, "run every workload and print a record")
	runs := fs.Int("runs", 1, "with -suite: untraced runs per workload")
	out := fs.String("out", "", "with -suite: write the JSON record to this file")
	compare := fs.Bool("compare", false, "run two checkouts in interleaved pairs and judge them under the bounds in BENCHMARK.json: -compare BASE_DIR HEAD_DIR")
	update := fs.Bool("update", false, "rewrite "+pinFile+" from an in-process quick suite")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "impact-suite:", err)
		return 2
	}
	if *update {
		if err := updatePin(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *compare && fs.NArg() != 2 {
		return fail(errors.New("-compare needs BASE_DIR and HEAD_DIR, two repository checkouts"))
	}
	if !*compare && fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seed < 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("need -seed >= 0, -seconds > 0, -runs >= 1 and -trace 0 or 1"))
	}
	base := config{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		setupReps: 5,
		// More results than the memory tier's 16384 entries: see durableJobs.op.
		fixture: 18000,
		scratch: scratchDir,
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return fail(err)
	}
	host := currentHost(scratchDir)
	fmt.Fprintln(stdout, "host:", host)
	if *compare {
		if *workload != "" {
			if _, err := newWorkload(*workload); err != nil {
				return fail(err)
			}
		}
		base.workload = *workload
		regressed, err := compareCheckouts(stdout, stderr, fs.Arg(0), fs.Arg(1), base)
		if err != nil {
			return fail(err)
		}
		return boolExit(!regressed)
	}
	if !*suite {
		if _, err := newWorkload(*workload); err != nil {
			return fail(err)
		}
		base.workload = *workload
		res, err := runOne(stdout, stderr, base)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		return boolExit(res.Correct)
	}

	rec := record{Host: host}
	for i := 0; i < *runs; i++ {
		for _, name := range workloadNames {
			cfg := base
			cfg.workload, cfg.seed, cfg.trace = name, *seed+int64(i), false
			res, err := runOne(stdout, stderr, cfg)
			if err != nil {
				return fail(err)
			}
			rec.Runs = append(rec.Runs, runRecord{name, cfg.seed, false, res})
		}
	}
	if base.trace {
		for _, name := range workloadNames {
			cfg := base
			cfg.workload = name
			res, err := runOne(stdout, stderr, cfg)
			if err != nil {
				return fail(err)
			}
			rec.Runs = append(rec.Runs, runRecord{name, cfg.seed, true, res})
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	for _, r := range rec.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runOne runs one workload and prints its metric table.
func runOne(stdout, stderr io.Writer, cfg config) (runResult, error) {
	fmt.Fprintf(stdout, "workload %s seed=%d window=%s trace=%t\n", cfg.workload, cfg.seed, cfg.window, cfg.trace)
	res, failures, err := runWorkload(cfg)
	if err != nil {
		return res, err
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "impact-suite: %s: check failed: %s\n", cfg.workload, f)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "  correct=%t attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	if !cfg.trace {
		fmt.Fprintf(stdout, "  host gauge %.4g ms against %.4g ms on the reference host: timings scaled by %.4g\n",
			res.gaugeMs, res.gaugeRefMs, ratio(res.gaugeRefMs, res.gaugeMs))
	}
	printMetrics(stdout, defs, res.Metrics)
	return res, nil
}

func boolExit(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// updatePin regenerates the quick suite in process and rewrites the
// pinned checksum.
func updatePin(stdout io.Writer) error {
	reps, err := figures.All(figures.ScaleQuick)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(renderSuite(reps))
	line := hex.EncodeToString(sum[:])
	if err := os.WriteFile(pinFile, []byte(line+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %s\n", pinFile, line)
	return nil
}
