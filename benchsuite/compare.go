package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// comparePairs is how many base/head pairs -compare runs per workload.
const comparePairs = 10

// benchmarkFile is the part of BENCHMARK.json the comparator reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, out any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one checkout under comparison and the suite binary built from it.
type side struct {
	name, dir, bin string
	runs           map[string][]runResult // per workload, in pair order
}

// compareCheckouts builds the suite in two checkouts and runs them in
// comparePairs interleaved pairs per workload, alternating which side runs
// first, so host drift during the session reaches both sides alike. It
// prints one row per workload and end-to-end metric and reports whether
// any row regressed.
func compareCheckouts(w, stderr io.Writer, baseDir, headDir string, cfg config) (bool, error) {
	var bench benchmarkFile
	if err := readJSON("BENCHMARK.json", &bench); err != nil {
		return false, err
	}
	sides := []*side{{name: "base", dir: baseDir}, {name: "head", dir: headDir}}
	for _, s := range sides {
		bin, err := filepath.Abs(filepath.Join(cfg.scratch, "compare", s.name, "impact-suite"))
		if err != nil {
			return false, err
		}
		s.bin = bin
		build := exec.Command("go", "build", "-o", bin, ".")
		build.Dir = filepath.Join(s.dir, "benchsuite")
		build.Stdout, build.Stderr = stderr, stderr
		if err := build.Run(); err != nil {
			return false, fmt.Errorf("building the %s suite in %s: %w", s.name, s.dir, err)
		}
		s.runs = map[string][]runResult{}
	}
	workloads := workloadNames
	if cfg.workload != "" {
		workloads = []string{cfg.workload}
	}
	for i := 0; i < comparePairs; i++ {
		order := sides
		if i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, wl := range workloads {
			for _, s := range order {
				res, err := s.run(stderr, wl, cfg.seed+int64(i), cfg.window.Seconds())
				if err != nil {
					return false, err
				}
				s.runs[wl] = append(s.runs[wl], res)
				fmt.Fprintf(stderr, "compare: pair %d %s %s done\n", i+1, wl, s.name)
			}
		}
	}

	fmt.Fprintf(w, "base: %s\nhead: %s\n%d pairs per workload, %gs windows\n", baseDir, headDir, comparePairs, cfg.window.Seconds())
	fmt.Fprintf(w, "%-14s %-23s %12s %25s %12s %25s %5s  %s\n",
		"workload", "metric", "base median", "base q1..q3", "head median", "head q1..q3", "wins", "verdict")
	regressed := false
	for _, wl := range workloads {
		for _, m := range bench.EndToEnd {
			b, h := metricValues(sides[0].runs[wl], m.Name), metricValues(sides[1].runs[wl], m.Name)
			lower := m.Better == "lower"
			v := verdict(b, h, lower, m.Bound)
			regressed = regressed || v == "regressed"
			bq, hq := quartiles(b), quartiles(h)
			fmt.Fprintf(w, "%-14s %-23s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %2d/%-2d  %s\n",
				wl, m.Name, bq[1], bq[0], bq[2], hq[1], hq[0], hq[2], pairWins(b, h, lower), len(b), v)
		}
	}
	return regressed, nil
}

// run runs one untraced workload with the side's binary, from the current
// directory, and returns its result line; a run that fails its checks is
// an error, since its numbers measure a broken program.
func (s *side) run(stderr io.Writer, workload string, seed int64, seconds float64) (runResult, error) {
	var out bytes.Buffer
	cmd := exec.Command(s.bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stdout, cmd.Stderr = &out, stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil || !res.Correct {
		return res, fmt.Errorf("%s run of %s at seed %d failed (exit %v, correct %t)", s.name, workload, seed, err, res.Correct)
	}
	return res, nil
}

// metricValues lists one metric over runs, in pair order.
func metricValues(runs []runResult, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// verdict judges head against base for one metric under its bound, a
// share of base's median; base[i] and head[i] ran as a pair.
func verdict(base, head []float64, lowerBetter bool, bound float64) string {
	better := func(x, y float64) bool { return (lowerBetter && x < y) || (!lowerBetter && x > y) }
	bq, hq := quartiles(base), quartiles(head)
	bm, hm := bq[1], hq[1]
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	gain := (hm - bm) / bm // relative change of the median, in the metric's units
	if lowerBetter {
		gain = -gain
	}
	switch {
	case (bq[2]-bq[0])/bm > bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case gain < -bound:
		return "regressed"
	case gain*bm > bq[2]-bq[0] && 10*pairWins(base, head, lowerBetter) >= 9*len(base):
		return "improved"
	}
	return "unchanged"
}

// pairWins counts the pairs the head wins; ties count for neither side.
func pairWins(base, head []float64, lowerBetter bool) int {
	wins := 0
	for i := range min(len(base), len(head)) {
		if (lowerBetter && head[i] < base[i]) || (!lowerBetter && head[i] > base[i]) {
			wins++
		}
	}
	return wins
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method); it needs
// at least two values.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n, m := len(d), len(d)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}
