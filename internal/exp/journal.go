package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exp/fsio"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// journalMagic tags every journal record's header line so an unrelated
// file dropped into the jobs dir is never mistaken for a job record.
const journalMagic = "impactjobs1"

// seqChunk is the ID-allocation reservation step: the SEQ watermark on
// disk always covers at least the highest issued sequence number, and is
// advanced seqChunk at a time so a submission pays the fsync only once
// per chunk. After a crash the next boot resumes allocation above the
// watermark, which may skip up to seqChunk IDs — a gap in job numbering,
// never a reuse, so a job ID observed by any client names at most one job
// forever.
const seqChunk = 64

// Fixed counter IDs for journal statistics, in the slot order passed to
// metrics.NewSet in NewJournal.
const (
	journalErrors metrics.CounterID = iota
	journalCorrupt
)

// Journal is the durable half of the job registry: a directory holding,
// for every accepted job, a spec record written at submission and a
// status record written once, when the job settles, plus the SEQ
// ID-allocation watermark. Recovery reads only whether a job's status is
// terminal, so nothing else is journaled: a job that is still queued or
// running has no status record, and a restart resumes it. All writes
// share the store's discipline — checksummed header, temp file, atomic
// rename, directory fsync — so a crash at any instant leaves every record
// either absent or complete, never torn.
//
// Layout under dir:
//
//	SEQ                 ID-allocation watermark (highest seq covered)
//	job-000017.spec     {"id": ..., "spec": <api.RunSpec>}, written once
//	job-000017.status   {"status": ...}, written once, when the job settles
//
// On boot Recover scans the directory, drops and deletes corrupt or
// truncated records (healing, like the store), and hands back every
// decodable job so the registry can re-enqueue the non-terminal ones. The
// journal is best-effort for everything except ID allocation: a failed
// spec write degrades to a job that does not survive a restart and a
// failed status write to one that a restart runs again (both counted,
// never silent), while a failed SEQ write fails the submission,
// because handing out an ID that a rebooted server could reissue would
// let two different jobs answer to one name.
type Journal struct {
	dir string
	met *metrics.Set
}

// NewJournal opens (creating if needed) a job journal rooted at dir.
func NewJournal(dir string) (*Journal, error) {
	if err := fsio.EnsureDir(dir); err != nil {
		return nil, fmt.Errorf("exp: journal: %v", err)
	}
	return &Journal{
		dir: dir,
		met: metrics.NewSet("errors", "corrupt_dropped"),
	}, nil
}

// journalSpec is the payload of a job's immutable spec record.
type journalSpec struct {
	ID   string      `json:"id"`
	Spec api.RunSpec `json:"spec"`
}

// journalStatus is the payload of a job's status record: the state it
// settled in. Records written by older builds also carry completed,
// resumed, spec_key and error fields; decoding ignores them.
type journalStatus struct {
	Status string `json:"status"`
}

// seqPath, specPath, and statusPath name the journal's files. Job IDs are
// validated by parseJobID before use, so a path can never escape dir.
func (jl *Journal) seqPath() string           { return filepath.Join(jl.dir, "SEQ") }
func (jl *Journal) specPath(id string) string { return filepath.Join(jl.dir, id+".spec") }
func (jl *Journal) statusPath(id string) string {
	return filepath.Join(jl.dir, id+".status")
}

// RecordSeq persists the ID-allocation watermark. Must succeed before any
// job at or below seq is announced to a client.
func (jl *Journal) RecordSeq(seq int) error {
	err := func() error {
		if err := fsio.Failpoint("journal.seq"); err != nil {
			return err
		}
		return fsio.AtomicWrite(jl.seqPath(), fsio.EncodeRecord(journalMagic, []byte(strconv.Itoa(seq))))
	}()
	if err != nil {
		jl.met.Add(journalErrors, 1)
		return fmt.Errorf("exp: journal: seq watermark: %w", err)
	}
	return nil
}

// RecordSpec persists a job's immutable spec record.
func (jl *Journal) RecordSpec(id string, spec Spec) error {
	err := func() error {
		if err := fsio.Failpoint("journal.spec"); err != nil {
			return err
		}
		payload, err := json.Marshal(journalSpec{ID: id, Spec: api.RunSpec(spec)})
		if err != nil {
			return err
		}
		return fsio.AtomicWrite(jl.specPath(id), fsio.EncodeRecord(journalMagic, payload))
	}()
	if err != nil {
		jl.met.Add(journalErrors, 1)
		return fmt.Errorf("exp: journal: job %s spec: %w", id, err)
	}
	return nil
}

// RecordStatus persists a settled job's status record, atomically
// replacing the interrupted record an earlier process may have left.
func (jl *Journal) RecordStatus(id string, st journalStatus) error {
	err := func() error {
		if err := fsio.Failpoint("journal.status"); err != nil {
			return err
		}
		payload, err := json.Marshal(st)
		if err != nil {
			return err
		}
		return fsio.AtomicWrite(jl.statusPath(id), fsio.EncodeRecord(journalMagic, payload))
	}()
	if err != nil {
		jl.met.Add(journalErrors, 1)
		return fmt.Errorf("exp: journal: job %s status: %w", id, err)
	}
	return nil
}

// Remove deletes a job's records (registry retirement, or boot-time
// cleanup of terminal jobs). Best-effort: a leftover record is re-dropped
// by the next Recover.
func (jl *Journal) Remove(id string) {
	if err := os.Remove(jl.specPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		jl.met.Add(journalErrors, 1)
	}
	if err := os.Remove(jl.statusPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		jl.met.Add(journalErrors, 1)
	}
}

// journalEntry is one recovered job: its identity, spec, and journaled
// status (zero-valued, so resumed, when the status record was missing or
// corrupt — the safe direction, since re-running is idempotent and mostly
// cache hits).
type journalEntry struct {
	ID     string
	Seq    int
	Spec   Spec
	Status journalStatus
}

// Recover scans the journal, heals damage, and returns the ID-allocation
// watermark plus every decodable job in submission (sequence) order.
// Corrupt or truncated spec records are dropped and their files deleted —
// their sequence numbers still advance the watermark, because the ID was
// issued even if its payload is now unreadable. Corrupt status records
// are deleted but the job survives as queued. Stray temp files and
// orphaned status records are removed. Damage is counted, never fatal: a
// journal that cannot be read at all recovers as empty rather than
// wedging the boot.
func (jl *Journal) Recover() (seq int, entries []journalEntry) {
	names, err := os.ReadDir(jl.dir)
	if err != nil {
		jl.met.Add(journalErrors, 1)
		return 0, nil
	}

	// SEQ watermark first: a corrupt or missing watermark falls back to
	// the spec-record scan below.
	fileSeq := 0
	if data, err := os.ReadFile(jl.seqPath()); err == nil {
		if payload, ok := fsio.DecodeRecord(journalMagic, data); ok {
			if n, err := strconv.Atoi(string(payload)); err == nil && n > 0 {
				fileSeq = n
			}
		} else {
			os.Remove(jl.seqPath())
			jl.met.Add(journalCorrupt, 1)
		}
	}
	seq = fileSeq

	specs := make(map[string]journalEntry)
	var statusIDs []string
	for _, de := range names {
		name := de.Name()
		switch {
		case de.IsDir() || name == "SEQ":
			continue
		case strings.HasPrefix(name, ".tmp-"):
			// A crash mid-write leaves at worst a stray temp file.
			os.Remove(filepath.Join(jl.dir, name))
			continue
		case strings.HasSuffix(name, ".spec"):
			id := strings.TrimSuffix(name, ".spec")
			n, ok := parseJobID(id)
			if !ok {
				// Not a name this journal ever writes; leave it alone.
				continue
			}
			if n > seq {
				seq = n
			}
			entry, ok := jl.readSpec(id)
			if !ok {
				jl.met.Add(journalCorrupt, 1)
				jl.Remove(id)
				continue
			}
			entry.Seq = n
			specs[id] = entry
		case strings.HasSuffix(name, ".status"):
			statusIDs = append(statusIDs, strings.TrimSuffix(name, ".status"))
		}
	}

	for _, id := range statusIDs {
		entry, ok := specs[id]
		if !ok {
			// Orphaned status (its spec was dropped, or retirement crashed
			// between the two removes): without a spec the job cannot be
			// resumed, so the record is dead weight.
			if _, isOurs := parseJobID(id); isOurs {
				os.Remove(jl.statusPath(id))
			}
			continue
		}
		st, ok := jl.readStatus(id)
		if !ok {
			jl.met.Add(journalCorrupt, 1)
			os.Remove(jl.statusPath(id))
			continue // job survives as queued
		}
		entry.Status = st
		specs[id] = entry
	}

	// A watermark derived from the spec scan (SEQ missing, corrupt, or
	// behind) must itself be made durable before the records that implied
	// it can be dropped — otherwise a second crash could regress the
	// watermark and reuse an ID. Best-effort like every repair: a failed
	// write is counted inside RecordSeq.
	if seq > fileSeq {
		jl.RecordSeq(seq)
	}

	entries = make([]journalEntry, 0, len(specs))
	//lint:ignore nodeterminism collection order is discarded by the Seq sort below
	for _, e := range specs {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	return seq, entries
}

// readSpec decodes one spec record, reporting ok=false on any damage
// (unreadable file, bad frame, payload/file-name ID mismatch).
func (jl *Journal) readSpec(id string) (journalEntry, bool) {
	data, err := os.ReadFile(jl.specPath(id))
	if err != nil {
		return journalEntry{}, false
	}
	payload, ok := fsio.DecodeRecord(journalMagic, data)
	if !ok {
		return journalEntry{}, false
	}
	var rec journalSpec
	if err := json.Unmarshal(payload, &rec); err != nil || rec.ID != id {
		return journalEntry{}, false
	}
	return journalEntry{ID: id, Spec: Spec(rec.Spec)}, true
}

// readStatus decodes one status record, reporting ok=false on damage.
func (jl *Journal) readStatus(id string) (journalStatus, bool) {
	data, err := os.ReadFile(jl.statusPath(id))
	if err != nil {
		return journalStatus{}, false
	}
	payload, ok := fsio.DecodeRecord(journalMagic, data)
	if !ok {
		return journalStatus{}, false
	}
	var st journalStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		return journalStatus{}, false
	}
	return st, true
}

// errorCount and corruptCount snapshot the journal counters; Jobs.Stats
// merges them into the /v1/metrics jobs section.
func (jl *Journal) errorCount() int64   { return jl.met.Value(journalErrors) }
func (jl *Journal) corruptCount() int64 { return jl.met.Value(journalCorrupt) }
