package pack

import "repro/internal/metrics"

// The auditor is the store's answer to silent rot: content-addressed
// results are written once and may sit unread for weeks, so the first
// reader of a flipped bit would otherwise be a cache Get on somebody's
// critical path. Instead, a background pass re-verifies needle CRCs a
// batch at a time, dropping any entry whose bytes no longer match so
// the next Get misses cleanly and the engine re-simulates a fresh copy.
// Every batch's drops are persisted before Audit returns — a crash
// cannot resurrect an entry the auditor already refused — and the
// orphaned needle bytes stay behind as counted bundle garbage.
//
// A pass walks a snapshot of the index keys; keys added after the
// snapshot wait for the next pass, and every key is re-read through the
// live index, so one dropped in the meantime is skipped (never a stale
// entry). The work is incremental by design: each background tick
// verifies at most auditBatch needles, so audit I/O stays a bounded tax
// no matter how large the store grows.

// Audit re-verifies up to limit needles, continuing the current pass or
// starting a new one if the previous pass finished. It returns the
// number of needles checked and the number dropped as corrupt.
func (s *Store) Audit(limit int) (checked, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0
	}
	if len(s.auditQueue) == 0 {
		if len(s.index) == 0 {
			return 0, 0
		}
		s.auditQueue = make([]string, 0, len(s.index))
		for key := range s.index {
			s.auditQueue = append(s.auditQueue, key)
		}
	}
	for checked < limit && len(s.auditQueue) > 0 {
		key := s.auditQueue[len(s.auditQueue)-1]
		s.auditQueue = s.auditQueue[:len(s.auditQueue)-1]
		e, ok := s.index[key]
		if !ok {
			continue // dropped since the snapshot; nothing to verify
		}
		checked++
		b := s.bundles[e.bundle]
		buf := make([]byte, needleSize(e.n))
		if _, err := b.f.ReadAt(buf, e.off); err != nil {
			s.met.Add(packErrors, 1)
			s.dropEntryLocked(key, e, packAuditCorrupt)
			dropped++
			continue
		}
		h, _, _, ok := parseNeedle(buf)
		if !ok || h.key != rawKey(key) {
			s.dropEntryLocked(key, e, packAuditCorrupt)
			dropped++
		}
	}
	s.met.Add(packAudited, int64(checked))
	if dropped > 0 {
		s.persistIndexLocked() // make the drops durable now, not at the next batch
	}
	if len(s.auditQueue) == 0 {
		s.auditQueue = nil
		s.met.Add(packAuditPasses, 1)
	}
	return checked, dropped
}

// dropEntryLocked removes one index entry, fixes live accounting, and
// counts the drop under counter. It reports whether e was still the live
// entry for key; a concurrent drop or a healing re-Put makes it a no-op.
// It does not persist the index — callers batch durability.
func (s *Store) dropEntryLocked(key string, e indexEntry, counter metrics.CounterID) bool {
	cur, ok := s.index[key]
	if !ok || cur != e {
		return false
	}
	delete(s.index, key)
	if b, ok := s.bundles[e.bundle]; ok {
		b.live -= needleSize(e.n)
	}
	s.met.Add(counter, 1)
	s.dirty++
	return true
}
