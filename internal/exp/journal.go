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
	"sync"

	"repro/internal/exp/fsio"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// journalMagic tags every journal record's header line so bytes the
// journal never wrote are never mistaken for a job record.
const journalMagic = "impactjobs1"

// journalLog names the log file inside the journal's directory.
const journalLog = "journal.log"

// seqChunk is the ID-allocation reservation step: the watermark on disk
// always covers at least the highest issued sequence number, and is
// advanced seqChunk at a time so a submission pays the fsync only once
// per chunk. After a crash the next boot resumes allocation above the
// watermark, which may skip up to seqChunk IDs — a gap in job numbering,
// never a reuse, so a job ID observed by any client names at most one job
// forever.
const seqChunk = 64

// The log is rewritten down to its live records once it holds at least
// compactMinBytes and at least compactFactor times the bytes the rewrite
// would keep.
const (
	compactMinBytes = 1 << 20
	compactFactor   = 4
)

// Fixed counter IDs for journal statistics, in the slot order passed to
// metrics.NewSet in NewJournal.
const (
	journalErrors metrics.CounterID = iota
	journalCorrupt
)

// Journal is the durable half of the job registry: one append-only log
// of checksummed records (fsio.EncodeRecord frames) under dir, each a JSON
// object of one of three shapes:
//
//	{"seq":128}                            ID-allocation watermark
//	{"id":"job-000017","spec":{...}}       a job's spec, written at submission
//	{"id":"job-000017","status":"done"}    the state a job settled in
//
// Each Record* call appends its record and fsyncs it under the journal's
// lock before it returns, so a record is on disk once its call succeeds.
// Recovery reads only whether a job's status is terminal, so nothing
// else is journaled: a job that is still queued or running has no status
// record, and a restart resumes it. Retiring a job writes nothing.
//
// The journal keeps in memory what a rewrite of the log would keep: the
// watermark and the spec record of every job without a terminal status.
// Recover rewrites the log down to that at boot, and a write rewrites it
// again once the log has outgrown it by compactFactor. A rewrite is
// published through fsio.AtomicWrite, so a crash leaves the old log or
// the new one.
//
// The journal is best-effort for everything except ID allocation: a
// failed spec write degrades to a job that does not survive a restart
// and a failed status write to one that a restart runs again (both
// counted, never silent), while a failed watermark write fails the
// submission, because handing out an ID that a rebooted server could
// reissue would let two different jobs answer to one name.
type Journal struct {
	dir string
	met *metrics.Set

	mu        sync.Mutex
	f         *os.File       // the log, opened on first use
	size      int64          // the log's length: where the next record goes
	seq       int            // the highest watermark written or recovered
	live      map[int][]byte // spec record of every job without a terminal status, by sequence number
	liveBytes int64          // the bytes held in live
	compact   bool           // live covers the whole log, so it may be rewritten
}

// NewJournal opens (creating if needed) a job journal rooted at dir. Call
// Recover before writing to a journal that may hold records.
func NewJournal(dir string) (*Journal, error) {
	if err := fsio.EnsureDir(dir); err != nil {
		return nil, fmt.Errorf("exp: journal: %v", err)
	}
	return &Journal{
		dir:  dir,
		met:  metrics.NewSet("errors", "corrupt_dropped"),
		live: make(map[int][]byte),
	}, nil
}

// journalRecord is the payload of one log record; see Journal for its
// three shapes. Spec records have the shape of the per-job spec files
// earlier builds wrote, so those files fold into the log unchanged.
type journalRecord struct {
	Seq    int          `json:"seq,omitempty"`
	ID     string       `json:"id,omitempty"`
	Spec   *api.RunSpec `json:"spec,omitempty"`
	Status string       `json:"status,omitempty"`
}

// journalStatus is the state a job settled in, as RecordStatus takes it.
type journalStatus struct {
	Status string `json:"status"`
}

func (jl *Journal) logPath() string { return filepath.Join(jl.dir, journalLog) }

// RecordSeq persists the ID-allocation watermark. Must succeed before any
// job at or below seq is announced to a client.
func (jl *Journal) RecordSeq(seq int) error {
	if err := jl.write("journal.seq", journalRecord{Seq: seq}); err != nil {
		return fmt.Errorf("exp: journal: seq watermark: %w", err)
	}
	return nil
}

// RecordSpec persists a job's immutable spec record.
func (jl *Journal) RecordSpec(id string, spec Spec) error {
	rs := api.RunSpec(spec)
	if err := jl.write("journal.spec", journalRecord{ID: id, Spec: &rs}); err != nil {
		return fmt.Errorf("exp: journal: job %s spec: %w", id, err)
	}
	return nil
}

// RecordStatus persists the state a job settled in.
func (jl *Journal) RecordStatus(id string, st journalStatus) error {
	if err := jl.write("journal.status", journalRecord{ID: id, Status: st.Status}); err != nil {
		return fmt.Errorf("exp: journal: job %s status: %w", id, err)
	}
	return nil
}

// write appends one record to the log and fsyncs it, folds it into the
// live picture, and rewrites the log once it has outgrown that picture.
// A failed write is counted and leaves the log as it was.
func (jl *Journal) write(failpoint string, rec journalRecord) error {
	err := func() error {
		if err := fsio.Failpoint(failpoint); err != nil {
			return err
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		frame := fsio.EncodeRecord(journalMagic, payload)
		jl.mu.Lock()
		defer jl.mu.Unlock()
		if err := jl.appendLocked(frame); err != nil {
			return err
		}
		jl.applyLocked(rec, frame)
		if jl.compact && jl.size >= max(compactMinBytes, compactFactor*jl.liveBytes) {
			jl.rewriteLocked() // best-effort: on failure the longer log stays whole
		}
		return nil
	}()
	if err != nil {
		jl.met.Add(journalErrors, 1)
	}
	return err
}

// openLocked opens the log for writing if it is not open yet, creating
// it on first use.
func (jl *Journal) openLocked() error {
	if jl.f != nil {
		return nil
	}
	f, err := os.OpenFile(jl.logPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() == 0 {
		// The log may be new: its directory entry must survive power loss
		// before any record in it is promised durable.
		err = fsio.SyncDir(jl.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	jl.f, jl.size = f, fi.Size()
	return nil
}

// appendLocked writes one record at the log's end and fsyncs it. A
// failed write is cut back off, so the next append extends whole records.
func (jl *Journal) appendLocked(frame []byte) error {
	if err := jl.openLocked(); err != nil {
		return err
	}
	_, err := jl.f.WriteAt(frame, jl.size)
	if err == nil {
		err = jl.f.Sync()
	}
	if err != nil {
		// Best-effort: bytes a failed cut leaves past size are overwritten
		// by the next append, or dropped as a torn tail at the next boot.
		_ = jl.f.Truncate(jl.size)
		return err
	}
	jl.size += int64(len(frame))
	return nil
}

// applyLocked folds one record into the live picture and reports whether
// it settled a job whose spec the picture held. Writes and Recover's
// replay both pass through here, so the picture a rewrite keeps is the
// one a boot would recover.
func (jl *Journal) applyLocked(rec journalRecord, frame []byte) (settled bool) {
	n, isJob := parseJobID(rec.ID)
	switch {
	case isJob && rec.Spec != nil:
		jl.seq = max(jl.seq, n)
		jl.liveBytes += int64(len(frame) - len(jl.live[n]))
		jl.live[n] = frame
	case isJob && rec.Status != "":
		jl.seq = max(jl.seq, n)
		if spec, ok := jl.live[n]; ok && api.JobTerminal(rec.Status) {
			delete(jl.live, n)
			jl.liveBytes -= int64(len(spec))
			return true
		}
	case rec.ID == "" && rec.Seq > 0:
		jl.seq = max(jl.seq, rec.Seq)
	}
	return false
}

// rewriteLocked replaces the log with its live records: the watermark,
// then the spec record of every job without a terminal status, in
// sequence order. The journal appends to the new log from the next write
// on.
func (jl *Journal) rewriteLocked() error {
	err := func() error {
		if err := fsio.Failpoint("journal.rewrite"); err != nil {
			return err
		}
		var buf []byte
		if jl.seq > 0 {
			payload, err := json.Marshal(journalRecord{Seq: jl.seq})
			if err != nil {
				return err
			}
			buf = fsio.EncodeRecord(journalMagic, payload)
		}
		for _, n := range jl.liveSeqsLocked() {
			buf = append(buf, jl.live[n]...)
		}
		if err := fsio.AtomicWrite(jl.logPath(), buf); err != nil {
			return err
		}
		if jl.f != nil {
			jl.f.Close()
			jl.f = nil
		}
		return nil
	}()
	if err != nil {
		jl.met.Add(journalErrors, 1)
	}
	return err
}

// liveSeqsLocked returns the sequence numbers of the live spec records,
// in order.
func (jl *Journal) liveSeqsLocked() []int {
	seqs := make([]int, 0, len(jl.live))
	for n := range jl.live {
		seqs = append(seqs, n)
	}
	sort.Ints(seqs)
	return seqs
}

// journalEntry is one recovered job without a terminal status: its
// identity and spec, for the registry to re-enqueue under its ID.
type journalEntry struct {
	ID   string
	Seq  int
	Spec Spec
}

// Recover replays the journal and returns the ID-allocation watermark,
// every job without a terminal status in sequence order, and how many
// jobs had settled. The watermark covers every job number a readable
// record names, because those IDs were issued. A record whose checksum
// fails is skipped and counted; a torn tail, the trace of a crash
// mid-append, is dropped. A jobs directory in the per-file layout of
// earlier builds (SEQ, job-*.spec, job-*.status) is read too, before the
// log.
//
// Recover then rewrites the log down to the watermark and the unsettled
// jobs' specs, and only once that has landed removes the earlier layout's
// files. If the rewrite fails, the journal keeps appending to the old
// log, cut back to its last whole record, and rewrites nothing more until
// the next boot. Damage is counted, never fatal.
func (jl *Journal) Recover() (seq int, entries []journalEntry, settled int) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.seq, jl.live, jl.liveBytes, jl.compact = 0, make(map[int][]byte), 0, false
	specs := make(map[int]api.RunSpec)
	replay := func(rec journalRecord, frame []byte) {
		if jl.applyLocked(rec, frame) {
			settled++
		}
		if n, ok := parseJobID(rec.ID); ok && rec.Spec != nil {
			specs[n] = *rec.Spec
		}
	}
	legacy := jl.replayLegacy(replay)
	if data, err := os.ReadFile(jl.logPath()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// A log this boot cannot read must not be replaced.
		jl.met.Add(journalErrors, 1)
	} else if whole := jl.replayLog(data, replay); jl.rewriteLocked() != nil {
		jl.cutLocked(whole)
	} else {
		jl.compact = true
		for _, path := range legacy {
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				jl.met.Add(journalErrors, 1)
			}
		}
	}

	seqs := jl.liveSeqsLocked()
	entries = make([]journalEntry, 0, len(seqs))
	for _, n := range seqs {
		entries = append(entries, journalEntry{ID: formatJobID(n), Seq: n, Spec: Spec(specs[n])})
	}
	return jl.seq, entries, settled
}

// cutLocked truncates the log to its first n bytes, the whole records a
// replay read, so appends after a failed rewrite do not land behind a
// torn tail.
func (jl *Journal) cutLocked(n int) {
	if err := jl.openLocked(); err != nil {
		jl.met.Add(journalErrors, 1)
		return
	}
	if jl.size <= int64(n) {
		return
	}
	if err := jl.f.Truncate(int64(n)); err != nil {
		jl.met.Add(journalErrors, 1)
		return
	}
	if err := jl.f.Sync(); err != nil {
		jl.met.Add(journalErrors, 1)
	}
	jl.size = int64(n)
}

// replayLog replays the log's records in order and returns the length of
// its whole-record prefix. A record whose payload fails its checksum or
// does not decode is counted and skipped: its header still frames the
// next one. The replay stops at a record cut short, and at a header it
// cannot read, counted, since past it the framing is lost.
func (jl *Journal) replayLog(data []byte, replay func(journalRecord, []byte)) int {
	off := 0
	for off < len(data) {
		payload, rest, err := fsio.NextRecord(journalMagic, data[off:])
		if errors.Is(err, fsio.ErrRecordTorn) {
			break
		}
		if err != nil && !errors.Is(err, fsio.ErrRecordChecksum) {
			jl.met.Add(journalCorrupt, 1)
			break
		}
		next := len(data) - len(rest)
		var rec journalRecord
		if err != nil || json.Unmarshal(payload, &rec) != nil {
			jl.met.Add(journalCorrupt, 1)
		} else {
			replay(rec, data[off:next])
		}
		off = next
	}
	return off
}

// replayLegacy replays a jobs directory in the per-file layout of earlier
// builds — an SEQ watermark file and a job-NNNNNN.spec and, once settled,
// a job-NNNNNN.status file per job — and returns the files to remove once
// the rewritten log holds what they said. A damaged file is counted and
// skipped, but its job number still advances the watermark. Stray temp
// files of an interrupted atomic write are removed; any other file is
// left alone.
func (jl *Journal) replayLegacy(replay func(journalRecord, []byte)) (files []string) {
	des, err := os.ReadDir(jl.dir)
	if err != nil {
		jl.met.Add(journalErrors, 1)
		return nil
	}
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(jl.dir, name)
		id, kind, _ := strings.Cut(name, ".")
		n, isJob := parseJobID(id)
		switch {
		case de.IsDir():
		case strings.HasPrefix(name, ".tmp-"):
			os.Remove(path) // best-effort: what a crash mid-rewrite leaves
		case name == "SEQ":
			files = append(files, path)
			data, _ := os.ReadFile(path)
			payload, ok := fsio.DecodeRecord(journalMagic, data)
			n, err := strconv.Atoi(string(payload))
			if !ok || err != nil {
				jl.met.Add(journalCorrupt, 1)
				continue
			}
			replay(journalRecord{Seq: n}, nil)
		case isJob && (kind == "spec" || kind == "status"):
			// The ID was issued, whatever the file now holds. ReadDir sorts
			// by name, so a job's spec file comes before its status file,
			// as the log orders their records.
			files = append(files, path)
			replay(journalRecord{Seq: n}, nil)
			data, _ := os.ReadFile(path)
			payload, ok := fsio.DecodeRecord(journalMagic, data)
			var rec journalRecord
			if !ok || json.Unmarshal(payload, &rec) != nil ||
				(kind == "spec" && (rec.ID != id || rec.Spec == nil)) {
				jl.met.Add(journalCorrupt, 1) // a job whose status is lost survives as queued
				continue
			}
			if kind == "status" {
				// A status file names its job only in its file name.
				rec = journalRecord{ID: id, Status: rec.Status}
			}
			replay(rec, data)
		}
	}
	return files
}

// errorCount and corruptCount snapshot the journal counters; Jobs.Stats
// merges them into the /v1/metrics jobs section.
func (jl *Journal) errorCount() int64   { return jl.met.Value(journalErrors) }
func (jl *Journal) corruptCount() int64 { return jl.met.Value(journalCorrupt) }
