package exp

import "testing"

// FuzzParseSpec drives the request-body path of POST /v1/run and POST
// /v1/jobs with arbitrary bytes: decode, then lazy expansion at the
// synchronous bound, then the last grid point. Errors are the expected
// answer to most inputs; a panic, or an expansion outside [1, MaxRuns],
// is a bug.
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
		if n := x.Total(); n < 1 || n > MaxRuns {
			t.Fatalf("expansion of %q covers %d runs, want 1..%d", data, n, MaxRuns)
		}
		x.RunAt(x.Total() - 1)
	})
}
