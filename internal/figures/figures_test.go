package figures

import (
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func TestReportRender(t *testing.T) {
	rep := Report{
		ID:    "Test",
		Title: "title",
		Rows:  []Row{{Label: "a", Paper: "1", Measured: "2"}},
		Notes: []string{"a note"},
	}
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	for _, want := range []string{"=== Test — title ===", "series", "paper", "measured", "a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestRowBufferGapNearPaper holds the numeric paper/measured rows the
// covert channels produce at quick scale inside recorded tolerance bands
// around the paper's values. Each band states why it is as wide as it is.
// The numbers come from the reports figures.Run returns, so a row that
// changes its format fails here too.
func TestRowBufferGapNearPaper(t *testing.T) {
	bands := []struct {
		id, label string
		// key precedes the number in the Measured column; "" reads the
		// leading number.
		key    string
		paper  float64
		lo, hi float64
		why    string
	}{
		{"rowbuffer", "conflict - hit", "", 74, 60, 90,
			"tRP+tRCD of the Table 2 DDR4 timing; the band is BenchmarkRowBufferLatencyGap's"},
		{"fig2", "LLC   4 MB", "direct ", 11.27, 9.0, 13.5,
			"±20%: the idealized direct attack is receiver-bound, and the model has no command-bus contention, so it runs ~14% fast"},
		{"fig2", "LLC  16 MB", "direct ", 11.27, 9.0, 13.5, "as at 4 MB: the direct attack is flat in LLC size"},
		{"fig2", "LLC 128 MB", "direct ", 11.27, 9.0, 13.5, "as at 4 MB: the direct attack is flat in LLC size"},
		{"fig8", "PnM decode errors", "", 0, 0, 0, "the 16-bit PoC decodes perfectly, as in the paper"},
		{"fig8", "PuM decode errors", "", 0, 0, 0, "the 16-bit PoC decodes perfectly, as in the paper"},
		{"fig9", "IMPACT-PnM", " 8MB:", 8.2, 6.97, 9.43,
			"±15%, TestPnMHeadlineThroughput's drift band for the calibrated PEI costs"},
		{"fig9", "IMPACT-PuM", " 8MB:", 14.8, 12.58, 17.02,
			"±15%, the same calibration band as PnM: the RowClone costs are fitted the same way"},
		{"fig9", "DRAMA-clflush", " 8MB:", 2.3, 1.38, 3.22,
			"±40%: the paper's ~2.3 is read off a plot, and the flush path rests on a CACTI LLC latency estimate"},
		{"fig9", "DMA engine", " 8MB:", 0.81, 0.73, 0.89,
			"±10%: the syscall and descriptor costs that dominate DMA are fitted to the paper's 0.81"},
		{"fig10", "sender ratio PnM/PuM", "", 11.1, 8.88, 13.32,
			"±20%: one PEI issue per bit against one masked RowClone per 16-bit batch; the ratio moves with both issue costs"},
		{"act", "no defense", "", 8.2, 6.97, 9.43, "±15%, the Figure 9 PnM band (same channel, quick-scale message)"},
		{"section8.4", "PnM, no maintenance", "", 8.2, 6.97, 9.43, "±15%, the Figure 9 PnM band (same channel, quick-scale message)"},
	}
	reports := map[string]Report{}
	for _, b := range bands {
		rep, ok := reports[b.id]
		if !ok {
			var err error
			if rep, err = Run(b.id, ScaleQuick); err != nil {
				t.Fatal(err)
			}
			reports[b.id] = rep
		}
		got := measuredValue(t, rep, b.label, b.key)
		if got < b.lo || got > b.hi {
			t.Errorf("%s %q measured %g, outside [%g, %g] around the paper's %g (%s)",
				rep.ID, b.label, got, b.lo, b.hi, b.paper, b.why)
		}
	}
}

// measuredValue returns the number that follows key in the Measured column
// of rep's row labelled label.
func measuredValue(t *testing.T, rep Report, label, key string) float64 {
	t.Helper()
	for _, row := range rep.Rows {
		if row.Label != label {
			continue
		}
		i := strings.Index(row.Measured, key)
		if i < 0 {
			t.Fatalf("%s %q: %q not in %q", rep.ID, label, key, row.Measured)
		}
		s := row.Measured[i+len(key):]
		if end := strings.IndexFunc(s, func(r rune) bool { return r != '.' && (r < '0' || r > '9') }); end >= 0 {
			s = s[:end]
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("%s %q: no number after %q in %q", rep.ID, label, key, row.Measured)
		}
		return v
	}
	t.Fatalf("%s has no row %q", rep.ID, label)
	return 0
}

func TestTable1And2Populate(t *testing.T) {
	t1, err := Table1(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 5 {
		t.Fatalf("Table 1 rows = %d, want 5", len(t1.Rows))
	}
	t2, err := Table2(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) < 6 {
		t.Fatalf("Table 2 rows = %d", len(t2.Rows))
	}
}

func TestFig8SeparatesBands(t *testing.T) {
	rep, err := Fig8(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if strings.Contains(row.Label, "errors") && !strings.HasPrefix(row.Measured, "0/") {
			t.Fatalf("PoC decoded with errors: %s = %s", row.Label, row.Measured)
		}
	}
}

// TestRunParallelMatchesSequential pins RunParallel's determinism contract:
// same reports, same order, same values as the sequential runner. Run under
// -race (see the Makefile) this also exercises the worker pool for data
// races between workers sharing the figures' machine pool.
func TestRunParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	seq, err := All(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(ScaleQuick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel reports = %d, sequential = %d", len(par), len(seq))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("report %d (%s) differs between sequential and parallel runs:\nseq: %+v\npar: %+v",
				i, seq[i].ID, seq[i], par[i])
		}
	}
}

// TestFanOutMatchesAcrossWidths requires every artifact whose runs
// sim.Fan spreads over the cores, and Figure 12's unformatted rows, to be
// the same inline (GOMAXPROCS=1) and fanned out (GOMAXPROCS=4). Run under
// -race (see the Makefile) it also checks that the runs of one figure
// share nothing they write.
func TestFanOutMatchesAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	type outcome struct {
		reports []Report
		rows    []workloads.DefenseRow
	}
	at := func(width int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		var o outcome
		for _, id := range []string{"fig2", "fig3", "fig9", "fig11", "fig12"} {
			rep, err := Run(id, ScaleQuick)
			if err != nil {
				t.Fatal(err)
			}
			o.reports = append(o.reports, rep)
		}
		rows, err := workloads.RunDefenseComparison(machines, workloads.SmallSuiteConfig(), workloads.DefenseConfigs())
		if err != nil {
			t.Fatal(err)
		}
		o.rows = rows
		return o
	}
	inline, fanned := at(1), at(4)
	for i := range inline.reports {
		if !reflect.DeepEqual(inline.reports[i], fanned.reports[i]) {
			t.Errorf("%s differs between GOMAXPROCS=1 and 4:\n1: %+v\n4: %+v",
				inline.reports[i].ID, inline.reports[i], fanned.reports[i])
		}
	}
	if !reflect.DeepEqual(inline.rows, fanned.rows) {
		t.Errorf("defense rows differ between GOMAXPROCS=1 and 4:\n1: %+v\n4: %+v", inline.rows, fanned.rows)
	}
}

// TestPooledFiguresMatchFresh pins the figures' machine pool against
// fresh assembly: every report must be the same whether its machines come
// straight from sim.New or from the pool, first as the pool stands and
// then on machines the previous pass dirtied.
func TestPooledFiguresMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	pool := machines
	machines = nil // a nil pool builds every machine with sim.New
	fresh, err := All(ScaleQuick)
	machines = pool
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		pooled, err := All(ScaleQuick)
		if err != nil {
			t.Fatal(err)
		}
		if len(pooled) != len(fresh) {
			t.Fatalf("pass %d: pooled reports = %d, fresh = %d", pass, len(pooled), len(fresh))
		}
		for i := range fresh {
			if !reflect.DeepEqual(pooled[i], fresh[i]) {
				t.Errorf("pass %d: report %d (%s) differs between pooled and fresh machines:\npooled: %+v\nfresh:  %+v",
					pass, i, fresh[i].ID, pooled[i], fresh[i])
			}
		}
	}
}

// TestSideChannelSweepMatchesSingleRuns requires a sweep that shares one
// reference, index and read set between bank counts to report what a
// separate call per bank count reports, so no run leaves state in the
// shared set-up for the next.
func TestSideChannelSweepMatchesSingleRuns(t *testing.T) {
	sweep, err := SideChannel([]int{64, 128}, 1<<16, 500, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	var singles []core.SideChannelResult
	for _, banks := range []int{64, 128} {
		res, err := SideChannel([]int{banks}, 1<<16, 500, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, res...)
	}
	if !reflect.DeepEqual(sweep, singles) {
		t.Fatalf("sweep over 64 and 128 banks:\n%+v\nsingle runs:\n%+v", sweep, singles)
	}
	for i, banks := range []int{64, 128} {
		if sweep[i].Banks != banks || sweep[i].Probes == 0 || sweep[i].VictimReadsMapped == 0 {
			t.Fatalf("run %d at %d banks: %+v", i, banks, sweep[i])
		}
	}
}

func TestAllQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	reports, err := All(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 14 {
		t.Fatalf("reports = %d, want 14", len(reports))
	}
	for _, rep := range reports {
		if len(rep.Rows) == 0 {
			t.Errorf("report %s is empty", rep.ID)
		}
	}
}

// TestRegistryIDs pins the exported registry: paper order, stable names.
func TestRegistryIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("IDs() = %d entries, want 14", len(ids))
	}
	if ids[0] != "rowbuffer" || ids[1] != "table1" || ids[len(ids)-1] != "framing" {
		t.Fatalf("unexpected registry order: %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate registry ID %q", id)
		}
		seen[id] = true
	}
}

// TestRunByID checks single-artifact dispatch and the unknown-ID error.
func TestRunByID(t *testing.T) {
	rep, err := Run("table2", ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "Table 2" {
		t.Fatalf("Run(table2) returned report %q", rep.ID)
	}
	if _, err := Run("fig99", ScaleQuick); err == nil {
		t.Fatal("unknown ID accepted")
	} else if !strings.Contains(err.Error(), "rowbuffer") {
		t.Fatalf("unknown-ID error does not list known IDs: %v", err)
	}
}

// TestParseScale pins the CLI/JSON scale names.
func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{"": ScaleQuick, "quick": ScaleQuick, "full": ScaleFull} {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("ParseScale accepted an unknown scale")
	}
}

// TestRunParallelWorkerValidation pins the worker-count contract: negative
// counts are rejected, oversized pools are clamped rather than spawning
// idle goroutines.
func TestRunParallelWorkerValidation(t *testing.T) {
	if _, err := RunParallel(ScaleQuick, -1); err == nil {
		t.Fatal("negative worker count accepted")
	}
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	// More workers than generators must behave identically to a full pool.
	reports, err := RunParallel(ScaleQuick, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("clamped pool produced %d reports, want %d", len(reports), len(IDs()))
	}
}
