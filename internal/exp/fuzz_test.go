package exp

import "testing"

// FuzzParseSpec drives the request-body path of POST /v1/run and POST
// /v1/jobs with arbitrary bytes: decode, then lazy expansion at the
// synchronous bound, then every grid point of a small grid (at most 64
// runs) or the last point of a larger one. Errors are the expected answer
// to most inputs; a panic, or an expansion outside [1, MaxRuns], is a bug.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(gridSpec))
	f.Add([]byte(`{"scenario": "covert-pnm", "grid": {"llc_ways": [16, -4]}}`))
	f.Add([]byte(`{"scenario": "rowbuffer", "scale": "full"}`))
	f.Add([]byte(`{"scenario": "covert-pum", "config": {"noise": {"seed": 7}}, "grid": {"mem.defense": ["none", "crp"]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		x, err := spec.Expansion(MaxRuns)
		if err != nil {
			return
		}
		n := x.Total()
		if n < 1 || n > MaxRuns {
			t.Fatalf("expansion of %q covers %d runs, want 1..%d", data, n, MaxRuns)
		}
		first := n - 1
		if n <= 64 {
			first = 0
		}
		for i := first; i < n; i++ {
			x.RunAt(i)
		}
	})
}
