package pack

import (
	"os"
	"path/filepath"

	"repro/internal/exp/fsio"
)

// legacyMagic frames the entries of the retired per-file result store;
// migration decodes them with the same validation that store's Get
// applied.
const legacyMagic = "impactstore1"

// migrate performs the one-way per-file → pack upgrade: any fan-out
// directory of the retired per-file backend found directly under the
// data-dir root (a two-hex-digit name, never "jobs" or "pack") has its
// entries decoded, appended into bundles, and removed. Corrupt legacy
// entries are dropped — exactly what the per-file store itself would have
// done on read. The walk is idempotent and crash-safe without any extra
// bookkeeping: a key that already reached a bundle is skipped (and its
// file removed), a key that didn't is still on disk for the next boot,
// and the index is persisted by Open after migration returns.
func (s *Store) migrate() {
	dirs, err := os.ReadDir(s.root)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	migratedAny := false
	for _, de := range dirs {
		name := de.Name()
		if !de.IsDir() || !isFanout(name) {
			continue
		}
		dirPath := filepath.Join(s.root, name)
		files, err := os.ReadDir(dirPath)
		if err != nil {
			s.met.Add(packErrors, 1)
			continue
		}
		removedAll := true
		for _, fe := range files {
			key := fe.Name()
			if fe.IsDir() || !validKey(key) || key[:2] != name {
				removedAll = false
				continue // not a store entry; leave it for a human
			}
			path := filepath.Join(dirPath, key)
			if !s.migrateEntryLocked(key, path) {
				removedAll = false
				continue
			}
			if err := os.Remove(path); err != nil {
				s.met.Add(packErrors, 1)
				removedAll = false
			}
		}
		if removedAll {
			fsio.SyncDir(dirPath)
			if err := os.Remove(dirPath); err != nil {
				s.met.Add(packErrors, 1)
			} else {
				migratedAny = true
			}
		}
	}
	if migratedAny {
		fsio.SyncDir(s.root)
	}
}

// migrateEntryLocked moves one legacy entry into the pack, reporting
// whether the file is safe to remove (migrated, already present, or
// corrupt beyond recovery — anything but a transient append failure).
func (s *Store) migrateEntryLocked(key, path string) bool {
	if _, ok := s.index[key]; ok {
		return true // a previous, interrupted migration already carried it over
	}
	data, err := os.ReadFile(path)
	if err != nil {
		s.met.Add(packErrors, 1)
		return false
	}
	payload, ok := fsio.DecodeRecord(legacyMagic, data)
	if !ok {
		s.met.Add(packCorrupt, 1)
		return true // damaged on the old side; dropping it is the heal path
	}
	if err := s.appendLocked(key, payload); err != nil {
		s.met.Add(packErrors, 1)
		return false // keep the legacy file; the next boot retries
	}
	s.met.Add(packMigrated, 1)
	return true
}

// isFanout reports whether name is a per-file store fan-out directory:
// exactly two lowercase hex digits.
func isFanout(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
