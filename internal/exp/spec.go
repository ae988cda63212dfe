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
	"maps"
	"sort"
	"strings"
	"sync"

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
// sim.FromJSON) decoded over the Table 2 defaults. Grid maps
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
// overlay — and returns the pieces expansion needs. The base document is
// the decoded overlay alone (empty without one): sim.FromJSON decodes
// every point onto sim.DefaultConfig, so the defaults never need to be
// spelled out in it.
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

	base := map[string]any{}
	if len(s.Config) > 0 {
		if base, err = decodeDoc(s.Config); err != nil {
			return scenario{}, 0, nil, fmt.Errorf(`exp: spec field "config": %v`, err)
		}
	}
	return scn, scale, base, nil
}

// configShape is sim.DefaultConfig as a decoded document: the field names
// and section structure every point document is checked against. It is
// decoded once per process and never written.
var configShape = sync.OnceValues(func() (map[string]any, error) {
	data, err := sim.DefaultConfig().ToJSON()
	if err != nil {
		return nil, err
	}
	return decodeDoc(data)
})

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
// A run's config document holds only the spec's config overlay and its
// grid point; sim.FromJSON decodes it onto the defaults. Grid paths may
// not overlap (one extending another at a "." boundary), so each grid
// value lands on its own key.
//
// An Expansion is immutable after construction and safe for concurrent
// RunAt calls: each call builds its document in fresh maps, copying every
// section on a grid path before writing into it, so no call writes the
// overlay, a grid value or the shared default shape. Run 0 is the one
// construction built; RunAt(0) returns it rather than building it twice,
// so its Params map is shared and, like every Run, read-only.
type Expansion struct {
	scn   scenario
	scale figures.Scale
	base  map[string]any // the config overlay; never written
	shape map[string]any // configShape; never written
	axes  []gridAxis
	total int
	// keyTail ends every run's key document after its config:
	// `,"scale":"quick","scenario":"covert-pnm"}` for example.
	keyTail []byte
	first   Run
}

// Expansion resolves the spec into a lazy run iterator bounded by limit
// (MaxRuns for the synchronous path, MaxJobRuns for jobs).
func (s Spec) Expansion(limit int) (*Expansion, error) {
	scn, scale, base, err := s.resolve()
	if err != nil {
		return nil, err
	}
	shape, err := configShape()
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
	// Paths must name disjoint parts of the config: where one path extends
	// another, both axes would set the inner field at every point, and the
	// outer axis's label would misstate what ran.
	for _, path := range paths {
		for i := range len(path) {
			if path[i] != '.' {
				continue
			}
			if _, ok := s.Grid[path[:i]]; ok {
				return nil, fmt.Errorf("exp: grid fields %q and %q overlap", path[:i], path)
			}
		}
	}

	// The key document is {"config":...,"scale":...,"scenario":...}, the
	// bytes json.Marshal writes for that map; its tail is fixed per spec.
	keyTail, err := json.Marshal(map[string]string{"scale": scale.String(), "scenario": scn.Name})
	if err != nil {
		return nil, err
	}
	keyTail[0] = ','

	x := &Expansion{scn: scn, scale: scale, base: base, shape: shape, axes: axes, total: total, keyTail: keyTail}
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
	doc := make(map[string]any, len(x.base)+len(x.axes))
	maps.Copy(doc, x.base)
	params := make(map[string]string, len(x.axes))
	stride := x.total
	for _, ax := range x.axes {
		stride /= len(ax.vals)
		j := (i / stride) % len(ax.vals)
		if err := setPath(doc, x.shape, ax.path, ax.vals[j]); err != nil {
			return Run{}, err
		}
		params[ax.path] = ax.labels[j]
	}
	run, err := x.newRun(doc, params)
	if err != nil {
		if len(params) == 0 {
			return Run{}, fmt.Errorf("exp: %w", err)
		}
		return Run{}, fmt.Errorf("exp: grid point %s: %w", FormatParams(params), err)
	}
	return run, nil
}

// newRun decodes one grid point's sparse config document onto the
// defaults and computes the run's content address.
func (x *Expansion) newRun(doc map[string]any, params map[string]string) (Run, error) {
	// encoding/json would bind a key that matches a field only up to case
	// to that field; the spelling rule is exact, so it is unknown here.
	if key, ok := foldedKey(doc, x.shape); ok {
		return Run{}, fmt.Errorf("sim: config: unknown field %q", key)
	}
	cfgJSON, err := json.Marshal(doc)
	if err != nil {
		return Run{}, err
	}
	cfg, err := sim.FromJSON(cfgJSON)
	if err != nil {
		return Run{}, err
	}
	// The canonical document re-encodes the *decoded* config, so
	// equivalent spellings of one value ("1e3" vs "1000", string vs
	// ordinal enums) collapse to the same content address. ToJSON output
	// is compact and HTML-escaped, as json.Marshal leaves a RawMessage,
	// so it is hashed in place.
	canonCfg, err := cfg.ToJSON()
	if err != nil {
		return Run{}, err
	}
	h := sha256.New()
	h.Write([]byte(`{"config":`))
	h.Write(canonCfg)
	h.Write(x.keyTail)
	return Run{
		Scenario: x.scn.Name,
		Scale:    x.scale,
		Config:   cfg,
		Params:   params,
		Key:      hex.EncodeToString(h.Sum(nil)),
		scn:      x.scn,
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

// setPath assigns val at a dot-separated field path of a point document,
// walking the default config shape beside it. Each section on the path is
// copied before it is written, so the overlay and grid values it came
// from stay untouched. A section the document does not hold yet takes its
// kind from the shape: a path through a default scalar fails, and a
// segment the shape lacks becomes a new section for sim.FromJSON to
// reject as an unknown field.
func setPath(doc, shape map[string]any, path string, val any) error {
	cur := doc
	for rest := path; ; {
		seg, tail, nested := strings.Cut(rest, ".")
		if !nested {
			cur[seg] = val
			return nil
		}
		rest = tail
		var child map[string]any
		if v, ok := cur[seg]; ok {
			section, ok := v.(map[string]any)
			if !ok {
				return fmt.Errorf("exp: grid field %q: %q is not a config section", path, seg)
			}
			child = maps.Clone(section)
		} else {
			if def, ok := shape[seg]; ok {
				if _, ok := def.(map[string]any); !ok {
					return fmt.Errorf("exp: grid field %q: %q is not a config section", path, seg)
				}
			}
			child = map[string]any{}
		}
		cur[seg] = child
		cur = child
		shape, _ = shape[seg].(map[string]any)
	}
}

// foldedKey finds a key of doc that names no field of shape but matches
// one up to case (strings.EqualFold, the folding encoding/json uses),
// descending into the sections doc and shape share. Of several, the one
// under the least top-level key wins, so map order cannot change it.
func foldedKey(doc, shape map[string]any) (key string, found bool) {
	var under string // the top-level key of doc that key was found under
	//lint:ignore nodeterminism keeps only the result under the least key, which is order-independent
	for k, v := range doc {
		if found && k > under {
			continue
		}
		bad, ok := "", false
		if def, exact := shape[k]; exact {
			sub, isDoc := v.(map[string]any)
			section, isSection := def.(map[string]any)
			if isDoc && isSection {
				bad, ok = foldedKey(sub, section)
			}
		} else if foldsToField(shape, k) {
			bad, ok = k, true
		}
		if ok {
			key, found, under = bad, true, k
		}
	}
	return key, found
}

// foldsToField reports whether key matches a field name of shape up to
// case.
func foldsToField(shape map[string]any, key string) bool {
	//lint:ignore nodeterminism an existence test: every order gives the same answer
	for name := range shape {
		if strings.EqualFold(name, key) {
			return true
		}
	}
	return false
}
