// Package exp is the experiment engine: it turns declarative JSON specs —
// a scenario name, sim.Config overrides, and a parameter grid — into
// concrete simulator runs, schedules them over a bounded worker pool, and
// memoizes every result in a content-addressed cache. Because the whole
// simulator is deterministic (per-core logical clocks, seeded noise, no
// wall-clock reads), a concrete run's canonical JSON identity maps to
// exactly one report, so repeated and overlapping sweeps are served from
// cache instead of re-simulated.
//
// The cache is built for concurrent serving: entries are sharded by key
// hash behind per-shard locks, and Cache.Compute coalesces identical
// in-flight runs (singleflight) so two clients requesting the same sweep
// at once trigger exactly one simulation. Determinism also makes reports
// safe to persist forever, so the cache can be layered over the durable
// pack store (memory → disk → simulate) that lets a restarted server
// answer previously computed sweeps without re-simulating. Server wraps
// the engine in an HTTP API — synchronous sweeps on POST /v1/run,
// asynchronous ones through the bounded Jobs registry (POST /v1/jobs,
// polled and streamed as NDJSON) — whose experiment routes run behind a
// metrics middleware (request counts, error counts, latency histograms
// from internal/metrics) exported on GET /v1/metrics. The wire contract
// — request/response documents, job lifecycle states, and the structured
// error envelope — is the typed pkg/api package (see docs/api.md), and
// pkg/client is the Go SDK over it. cmd/impact-server exposes the engine
// over HTTP, cmd/impact-sweep drives it from spec files through the SDK,
// and cmd/impact-bench load-tests the serving layer.
package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/figures"
	"repro/internal/sim"
	"repro/pkg/api"
)

// MaxRuns bounds how many concrete runs one spec may expand into on the
// synchronous path, so a malformed or hostile grid cannot wedge the
// server. The async job path streams runs through a lazy Expansion and
// affords the much larger MaxJobRuns.
const MaxRuns = 4096

// MaxJobRuns bounds lazily expanded (async job) sweeps. Lazy expansion
// never materializes the Cartesian product and results stream into the
// content-addressed store as they complete, so the bound exists only to
// keep one job from monopolizing a server indefinitely.
const MaxJobRuns = 1 << 20

// ErrUnknownScenario tags expansion failures caused by a scenario name
// that is not in the registry (servers map it to 404 rather than 400).
var ErrUnknownScenario = errors.New("exp: unknown scenario")

// ErrGridTooLarge tags specs whose grid expands past the endpoint's run
// bound. The run count is computed with overflow-safe arithmetic, so a
// grid sized to overflow int lands here instead of in a huge or negative
// allocation (servers map it to 400 with code grid_too_large).
var ErrGridTooLarge = errors.New("exp: grid too large")

// Spec is the engine-side form of an experiment sweep. Its wire shape is
// api.RunSpec — the two convert freely — with the expansion machinery
// (Expansion, grid resolution, content addressing) layered on top here so
// pkg/api stays a pure contract package.
//
// Config is a sparse sim.Config document (snake_case JSON tags; see
// sim.FromJSON) deep-merged over the Table 2 defaults. Grid maps
// dot-separated config field paths — e.g. "llc_bytes" or "mem.defense" —
// to the list of values to sweep; the engine expands the Cartesian
// product of all grid fields into concrete runs.
type Spec api.RunSpec

// ParseSpec decodes a spec document, rejecting unknown fields so typos
// ("grids", "senario") fail loudly instead of silently running defaults.
func ParseSpec(data []byte) (Spec, error) {
	s, err := api.ParseRunSpec(data)
	if err != nil {
		return Spec{}, err
	}
	return Spec(s), nil
}

// Run is one concrete, fully resolved experiment: a scenario, a scale,
// and an exact sim.Config. Key is the hex SHA-256 of the run's canonical
// JSON document and is the content address of its report.
type Run struct {
	Scenario string
	Scale    figures.Scale
	Config   sim.Config
	// Params records this run's grid-point assignments (path -> canonical
	// JSON value) for labeling sweep output.
	Params map[string]string
	Key    string

	scn scenario
}

// resolve validates the spec's front matter — scenario, scale, config
// overlay — and returns the pieces expansion needs.
func (s Spec) resolve() (scenario, figures.Scale, map[string]any, error) {
	scn, ok := scenarioByName(s.Scenario)
	if !ok {
		return scenario{}, 0, nil, fmt.Errorf("%w %q (known: %s)", ErrUnknownScenario, s.Scenario, strings.Join(ScenarioNames(), ", "))
	}
	scale, err := figures.ParseScale(s.Scale)
	if err != nil {
		return scenario{}, 0, nil, err
	}
	// Figure-replay scenarios build their own fixed machines; accepting
	// overrides or grids for them would produce runs labeled with
	// parameters that were never applied.
	if !scn.ConfigSensitive && (len(s.Config) > 0 || len(s.Grid) > 0) {
		return scenario{}, 0, nil, fmt.Errorf("exp: scenario %q replays a fixed paper artifact and ignores sim.Config; drop the config/grid fields", s.Scenario)
	}

	base, err := defaultConfigDoc()
	if err != nil {
		return scenario{}, 0, nil, err
	}
	if len(s.Config) > 0 {
		patch, err := decodeDoc(s.Config)
		if err != nil {
			return scenario{}, 0, nil, fmt.Errorf(`exp: spec field "config": %v`, err)
		}
		deepMerge(base, patch)
	}
	return scn, scale, base, nil
}

// gridAxis is one grid field of an Expansion: its decoded values and their
// canonical JSON labels, fixed at construction so RunAt never re-parses.
type gridAxis struct {
	path   string
	vals   []any
	labels []string
}

// Expansion is a lazily expanded spec: RunAt(i) materializes run i on
// demand, so a 10^5-run grid never allocates its full Cartesian product.
// Grid fields are sorted lexicographically and the product is walked
// row-major (last field fastest), so expansion order — and therefore
// sweep output — is a pure function of the spec. Construction validates
// the front matter, every grid value's JSON, and (by building the first
// grid point) that the grid paths name real config fields the simulator
// accepts.
//
// An Expansion is immutable after construction and safe for concurrent
// RunAt calls: each call deep-copies the base document before applying its
// grid point. Run 0 is the one construction built; RunAt(0) returns it
// rather than building it twice, so its Params map is shared and, like
// every Run, read-only.
type Expansion struct {
	scn   scenario
	scale figures.Scale
	base  map[string]any
	axes  []gridAxis
	total int
	first Run
}

// Expansion resolves the spec into a lazy run iterator bounded by limit
// (MaxRuns for the synchronous path, MaxJobRuns for jobs).
func (s Spec) Expansion(limit int) (*Expansion, error) {
	scn, scale, base, err := s.resolve()
	if err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(s.Grid))
	for path := range s.Grid {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	total := 1
	axes := make([]gridAxis, 0, len(paths))
	for _, path := range paths {
		raws := s.Grid[path]
		if len(raws) == 0 {
			return nil, fmt.Errorf(`exp: grid field %q has no values`, path)
		}
		// Guard the product before multiplying: total*len(raws) could
		// overflow int on an adversarial grid, and the quotient form
		// cannot (len(raws) >= 1, so the division is always defined).
		if total > limit/len(raws) {
			return nil, fmt.Errorf("%w: grid expands to more than %d runs", ErrGridTooLarge, limit)
		}
		total *= len(raws)
		ax := gridAxis{path: path, vals: make([]any, len(raws)), labels: make([]string, len(raws))}
		for i, raw := range raws {
			val, err := decodeValue(raw)
			if err != nil {
				return nil, fmt.Errorf("exp: grid field %q: %v", path, err)
			}
			canon, err := json.Marshal(val)
			if err != nil {
				return nil, fmt.Errorf("exp: grid field %q: %v", path, err)
			}
			ax.vals[i] = val
			ax.labels[i] = string(canon)
		}
		axes = append(axes, ax)
	}

	x := &Expansion{scn: scn, scale: scale, base: base, axes: axes, total: total}
	// Build the first grid point now: lazy expansion moves setPath and
	// sim.FromJSON validation from submit time to run time, and a grid
	// whose paths misname config fields fails identically at every point —
	// catching it here keeps bad specs failing synchronously.
	if x.first, err = x.build(0); err != nil {
		return nil, err
	}
	return x, nil
}

// Total returns the number of runs the spec expands into (always >= 1).
func (x *Expansion) Total() int { return x.total }

// RunAt materializes run i in expansion order.
func (x *Expansion) RunAt(i int) (Run, error) {
	if i < 0 || i >= x.total {
		return Run{}, fmt.Errorf("exp: run index %d out of range [0,%d)", i, x.total)
	}
	if i == 0 {
		return x.first, nil
	}
	return x.build(i)
}

// build materializes run i, which the caller has range-checked.
func (x *Expansion) build(i int) (Run, error) {
	cfgDoc := deepCopy(x.base)
	params := make(map[string]string, len(x.axes))
	stride := x.total
	for _, ax := range x.axes {
		stride /= len(ax.vals)
		j := (i / stride) % len(ax.vals)
		if err := setPath(cfgDoc, ax.path, ax.vals[j]); err != nil {
			return Run{}, err
		}
		params[ax.path] = ax.labels[j]
	}
	run, err := newRun(x.scn, x.scale, cfgDoc, params)
	if err != nil {
		if len(params) == 0 {
			return Run{}, fmt.Errorf("exp: %w", err)
		}
		return Run{}, fmt.Errorf("exp: grid point %s: %w", FormatParams(params), err)
	}
	return run, nil
}

// newRun validates one concrete config document and computes the run's
// content address.
func newRun(scn scenario, scale figures.Scale, cfgDoc map[string]any, params map[string]string) (Run, error) {
	cfgJSON, err := json.Marshal(cfgDoc)
	if err != nil {
		return Run{}, err
	}
	cfg, err := sim.FromJSON(cfgJSON)
	if err != nil {
		return Run{}, err
	}
	// The canonical document re-encodes the *decoded* config, so
	// equivalent spellings of one value ("1e3" vs "1000", string vs
	// ordinal enums) collapse to the same content address.
	canonCfg, err := cfg.ToJSON()
	if err != nil {
		return Run{}, err
	}
	canonical, err := json.Marshal(map[string]any{
		"scenario": scn.Name,
		"scale":    scale.String(),
		"config":   json.RawMessage(canonCfg),
	})
	if err != nil {
		return Run{}, err
	}
	sum := sha256.Sum256(canonical)
	return Run{
		Scenario: scn.Name,
		Scale:    scale,
		Config:   cfg,
		Params:   params,
		Key:      hex.EncodeToString(sum[:]),
		scn:      scn,
	}, nil
}

// FormatParams renders a grid point as "a=1 b=2" in sorted path order
// (the shared label form for engine errors and sweep output).
func FormatParams(params map[string]string) string {
	if len(params) == 0 {
		return "(no grid)"
	}
	paths := make([]string, 0, len(params))
	for p := range params {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	parts := make([]string, len(paths))
	for i, p := range paths {
		parts[i] = p + "=" + params[p]
	}
	return strings.Join(parts, " ")
}

// defaultConfigDoc returns sim.DefaultConfig as a canonical document.
func defaultConfigDoc() (map[string]any, error) {
	data, err := sim.DefaultConfig().ToJSON()
	if err != nil {
		return nil, err
	}
	return decodeDoc(data)
}

// decodeDoc decodes a JSON object, preserving numbers as json.Number so
// re-encoding does not round integers through float64.
func decodeDoc(data []byte) (map[string]any, error) {
	v, err := decodeValue(data)
	if err != nil {
		return nil, err
	}
	doc, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("want a JSON object, got %s", data)
	}
	return doc, nil
}

// decodeValue decodes any JSON value with number literals preserved.
func decodeValue(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// deepMerge overlays src onto dst: nested objects merge recursively,
// everything else (including arrays) replaces wholesale.
func deepMerge(dst, src map[string]any) {
	//lint:ignore nodeterminism writes land on disjoint keys, so merge order commutes
	for k, sv := range src {
		if sm, ok := sv.(map[string]any); ok {
			if dm, ok := dst[k].(map[string]any); ok {
				deepMerge(dm, sm)
				continue
			}
		}
		dst[k] = sv
	}
}

// deepCopy clones a document so grid points never alias each other.
func deepCopy(doc map[string]any) map[string]any {
	out := make(map[string]any, len(doc))
	for k, v := range doc {
		if m, ok := v.(map[string]any); ok {
			out[k] = deepCopy(m)
		} else {
			out[k] = v
		}
	}
	return out
}

// setPath assigns a value at a dot-separated field path, creating missing
// intermediate objects (sim.FromJSON then rejects paths that do not name
// real config fields).
func setPath(doc map[string]any, path string, val any) error {
	segs := strings.Split(path, ".")
	cur := doc
	for _, seg := range segs[:len(segs)-1] {
		next, ok := cur[seg]
		if !ok {
			child := map[string]any{}
			cur[seg] = child
			cur = child
			continue
		}
		child, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("exp: grid field %q: %q is not a config section", path, seg)
		}
		cur = child
	}
	cur[segs[len(segs)-1]] = val
	return nil
}
