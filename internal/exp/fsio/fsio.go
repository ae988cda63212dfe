// Package fsio is the shared durability toolkit under every disk
// artifact the experiment service writes: the job journal and the pack
// engine's bundles and index all publish bytes through the same
// atomic-write discipline and frame them under the same checksummed-header
// record format (which the legacy per-file result layout that pack
// migrates also used), so one implementation (and one set of crash tests)
// covers every write path.
package fsio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// AtomicWrite publishes data at path so readers only ever observe the
// complete old or complete new contents: the bytes land in a temp file in
// the same directory, are fsynced, renamed over path, and then the
// containing directory is fsynced so the rename itself survives power
// loss — not just process death. A crash at any point leaves at worst a
// stray ".tmp-*" file, never a torn entry.
func AtomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making previously renamed (or removed)
// entries durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// EnsureDir creates dir (and any missing parents) and fsyncs every
// directory entry the creation added, from the first pre-existing
// ancestor down. A bare os.MkdirAll leaves the new entries buffered in
// the parent directories: the process can go on to atomically write files
// *inside* a directory that itself vanishes on power loss. Call sites
// that build a data-dir layout must use this instead.
func EnsureDir(dir string) error {
	if fi, err := os.Stat(dir); err == nil {
		if fi.IsDir() {
			return nil
		}
		return &os.PathError{Op: "mkdir", Path: dir, Err: os.ErrExist}
	}
	// Find the closest ancestor that already exists: everything below it
	// is about to be created and needs its parent entry synced.
	root := dir
	for {
		parent := filepath.Dir(root)
		if parent == root {
			break
		}
		if _, err := os.Stat(parent); err == nil {
			break
		}
		root = parent
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Sync the created chain bottom-up, then the pre-existing parent that
	// gained the topmost new entry.
	for d := dir; ; d = filepath.Dir(d) {
		if err := SyncDir(d); err != nil {
			return err
		}
		if d == root {
			break
		}
	}
	return SyncDir(filepath.Dir(root))
}

// EncodeRecord frames a payload under the shared checksummed-header
// discipline: "<magic> <payload-bytes> <hex sha256>\n" followed by the
// payload. The header lets a reader reject truncated, torn, or foreign
// files before trusting a single payload byte.
func EncodeRecord(magic string, payload []byte) []byte {
	digest := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %d %s\n", magic, len(payload), hex.EncodeToString(digest[:]))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	out = append(out, payload...)
	return out
}

// DecodeRecord validates a framed record against its header, returning the
// payload only when the record is exactly what EncodeRecord writes for it:
// magic, length and checksum must all agree, spelled canonically, so a
// padded or re-spelled header is refused like a torn one. The length is
// checked before the payload is hashed.
func DecodeRecord(magic string, data []byte) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	header, payload := data[:nl], data[nl+1:]
	prefix := fmt.Sprintf("%s %d ", magic, len(payload))
	if !bytes.HasPrefix(header, []byte(prefix)) {
		return nil, false
	}
	digest := sha256.Sum256(payload)
	if string(header[len(prefix):]) != hex.EncodeToString(digest[:]) {
		return nil, false
	}
	return payload, true
}
