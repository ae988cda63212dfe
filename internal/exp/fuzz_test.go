package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exp/fsio"
)

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

// FuzzJournalRecover drives the journal's log replay with arbitrary bytes
// as the log. Damage is the expected answer to most inputs; what must
// hold is that Recover never panics, never recovers a job from a record
// whose checksum fails, returns a watermark at or above every job it
// recovers, and, over the log its rewrite left, recovers the same
// watermark and jobs again with nothing settled or damaged left to drop.
func FuzzJournalRecover(f *testing.F) {
	spec, err := ParseSpec([]byte(`{"scenario": "covert-pum", "grid": {"noise.seed": [1, 2]}}`))
	if err != nil {
		f.Fatal(err)
	}
	jl, err := NewJournal(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	jl.RecordSeq(seqChunk)
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		jl.RecordSpec(id, spec)
	}
	jl.RecordStatus("job-000002", journalStatus{Status: JobDone})
	jl.RecordStatus("job-000003", journalStatus{Status: JobInterrupted})
	log, err := os.ReadFile(jl.logPath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-7]) // a torn tail
	flipped := bytes.Clone(log)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalLog), data, 0o644); err != nil {
			t.Fatal(err)
		}
		seq, entries, _ := mustJournal(t, dir).Recover()
		intact := intactSpecIDs(data)
		for _, e := range entries {
			if !intact[e.ID] {
				t.Fatalf("recovered %s, which no intact spec record names", e.ID)
			}
			if e.Seq > seq {
				t.Fatalf("watermark %d below recovered %s", seq, e.ID)
			}
		}
		again := mustJournal(t, dir)
		seq2, entries2, settled2 := again.Recover()
		if seq2 != seq || !reflect.DeepEqual(entries2, entries) || settled2 != 0 || again.corruptCount() != 0 {
			t.Fatalf("second Recover: seq %d, %d entries, %d settled, %d corrupt; want %d, %d, 0, 0",
				seq2, len(entries2), settled2, again.corruptCount(), seq, len(entries))
		}
	})
}

// intactSpecIDs returns the ID of every spec record whose checksum holds,
// wherever in data it starts.
func intactSpecIDs(data []byte) map[string]bool {
	ids := make(map[string]bool)
	for i := range data {
		if !bytes.HasPrefix(data[i:], []byte(journalMagic+" ")) {
			continue
		}
		var rec journalRecord
		if payload, _, err := fsio.NextRecord(journalMagic, data[i:]); err == nil &&
			json.Unmarshal(payload, &rec) == nil && rec.Spec != nil {
			ids[rec.ID] = true
		}
	}
	return ids
}
