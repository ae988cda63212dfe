// Package figures regenerates every table and figure of the paper's
// evaluation, printing the paper's reported values next to this
// reproduction's measured values. Each function corresponds to one artifact,
// registered under the ID that IDs lists in paper order; All runs the
// complete set. SideChannel, RunPnMUnder and AttackUnderDefenses are
// the one copy of the experiments that the CLIs and examples share.
package figures

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"

	"repro/internal/sim"
)

// machines supplies every machine the generators run on. Each run takes
// one with Get and hands it back with Put when the run returns, so runs
// of one shape reuse a machine instead of assembling a fresh one; Reset
// is state-free, so no report can tell the difference. A nil pool builds
// every machine fresh.
var machines = sim.NewPool()

// Row is one paper-vs-measured comparison line.
type Row struct {
	Label    string `json:"label"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
}

// Report is one regenerated table or figure. The JSON form is served by
// cmd/impact-server and emitted by the -json CLI modes; encoding/json
// preserves field declaration order, so marshaling is deterministic.
type Report struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Rows  []Row    `json:"rows"`
	Notes []string `json:"notes,omitempty"`
}

// Render writes the report as an aligned text table.
func (r Report) Render(w io.Writer) {
	fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Title)
	labelW, paperW := len("series"), len("paper")
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
		if len(row.Paper) > paperW {
			paperW = len(row.Paper)
		}
	}
	fmt.Fprintf(w, "%-*s  %*s  %s\n", labelW, "series", paperW, "paper", "measured")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-*s  %*s  %s\n", labelW, row.Label, paperW, row.Paper, row.Measured)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale selects how much work the harness performs.
type Scale int

const (
	// ScaleQuick shrinks message sizes and sweeps for CI-speed runs.
	ScaleQuick Scale = iota + 1
	// ScaleFull reproduces the experiments at full size.
	ScaleFull
)

// Bits returns the covert-channel message length for the scale.
func (s Scale) Bits() int {
	if s == ScaleFull {
		return 4096
	}
	return 512
}

// String implements fmt.Stringer; the forms round-trip through ParseScale.
func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "quick"
}

// ParseScale maps the CLI/JSON scale names to a Scale. The empty string
// selects ScaleQuick so spec files may omit the field.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "", "quick":
		return ScaleQuick, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf(`figures: unknown scale %q (want "quick" or "full")`, name)
	}
}

// generator names one artifact generator.
type generator struct {
	name string
	fn   func(Scale) (Report, error)
}

// generators returns every artifact generator in paper order. Each
// generator runs on machines from the shared pool, configured from fixed
// seeds, so generators are independent and safe to run concurrently.
func generators() []generator {
	return []generator{
		{"rowbuffer", RowBufferGap},
		{"table1", Table1},
		{"table2", Table2},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"act", ACTReduction},
		{"act-adaptive", AdaptiveAttacker},
		{"section8.4", Section84},
		{"framing", ReliableFraming},
	}
}

// IDs returns every artifact generator ID in paper order. The IDs are the
// public registry keys: Run accepts them, cmd/impact-figures -only filters
// by them, and the experiment engine exposes each as a scenario.
func IDs() []string {
	gens := generators()
	out := make([]string, len(gens))
	for i, g := range gens {
		out[i] = g.name
	}
	return out
}

// Run regenerates the single artifact with the given registry ID.
func Run(id string, scale Scale) (Report, error) {
	for _, g := range generators() {
		if g.name == id {
			rep, err := g.fn(scale)
			if err != nil {
				return Report{}, fmt.Errorf("%s: %w", g.name, err)
			}
			return rep, nil
		}
	}
	return Report{}, fmt.Errorf("figures: unknown figure ID %q (known: %s)", id, strings.Join(IDs(), ", "))
}

// All regenerates the artifacts one after another in paper order; each
// still fans its own runs out with sim.Fan.
func All(scale Scale) ([]Report, error) {
	gens := generators()
	out := make([]Report, 0, len(gens))
	for _, g := range gens {
		rep, err := g.fn(scale)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// RunParallel regenerates every artifact with up to workers of them in
// flight at once, each on machines of its own from the shared machine
// pool. The returned reports are identical to All's — same paper order,
// same values (every generator is seeded) — only the wall-clock time
// changes. Each of min(workers, artifacts) lanes regenerates the next
// artifact not yet claimed until none is left, and sim.Fan runs the lanes
// side by side as far as GOMAXPROCS allows; every generator fans its own
// runs out the same way, so the two levels together keep at most
// GOMAXPROCS simulations running. workers == 0 selects runtime.NumCPU(),
// negative worker counts are rejected, and workers == 1 degenerates to the
// sequential path. When several generators fail, the error of the
// earliest one in paper order is returned, again matching All.
func RunParallel(scale Scale, workers int) ([]Report, error) {
	if workers < 0 {
		return nil, fmt.Errorf("figures: negative worker count %d", workers)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	if workers == 1 {
		return All(scale)
	}
	gens := generators()
	out := make([]Report, len(gens))
	errs := make([]error, len(gens))
	var next atomic.Int64
	// A lane never fails: it keeps each generator's error at the
	// generator's index, so the scan below finds the earliest in paper
	// order.
	_, _ = sim.Fan(min(workers, len(gens)), func(int) (struct{}, error) {
		for i := int(next.Add(1) - 1); i < len(gens); i = int(next.Add(1) - 1) {
			if out[i], errs[i] = gens[i].fn(scale); errs[i] != nil {
				errs[i] = fmt.Errorf("%s: %w", gens[i].name, errs[i])
			}
		}
		return struct{}{}, nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fmtMbps formats a throughput value.
func fmtMbps(v float64) string { return fmt.Sprintf("%.2f Mb/s", v) }

// fmtPct formats a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// fmtCycles formats a cycle count.
func fmtCycles(v int64) string { return fmt.Sprintf("%d cyc", v) }

// join concatenates label parts.
func join(parts ...string) string { return strings.Join(parts, " ") }
