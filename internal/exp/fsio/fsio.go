// Package fsio is the shared durability toolkit under every disk
// artifact the experiment service writes: the job journal's log and the
// pack engine's index frame their records under the same checksummed-header
// record format, and every file replaced whole — the pack index, a
// rewritten job log — is published through the same atomic-write
// discipline, so one implementation (and one set of crash tests) covers
// every write path.
package fsio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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
// bytes before trusting a single payload byte, and its length lets a
// reader of records appended back to back find where the next one starts.
func EncodeRecord(magic string, payload []byte) []byte {
	digest := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %d %s\n", magic, len(payload), hex.EncodeToString(digest[:]))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	out = append(out, payload...)
	return out
}

// Errors NextRecord reports for bytes that do not start with a whole,
// intact record.
var (
	// ErrRecordTorn: the bytes end before the record does.
	ErrRecordTorn = errors.New("fsio: record cut short")
	// ErrRecordHeader: the header line is not one EncodeRecord writes.
	ErrRecordHeader = errors.New("fsio: malformed record header")
	// ErrRecordChecksum: the payload does not match the header's
	// checksum. The header still frames it, so the bytes after it are
	// returned and may start the next record.
	ErrRecordChecksum = errors.New("fsio: record checksum mismatch")
)

// maxLengthDigits bounds the header's length field, so parsing it
// cannot overflow.
const maxLengthDigits = 18

// NextRecord splits the first framed record off data and returns its
// payload and the bytes after it. The header must be spelled exactly as
// EncodeRecord writes it, so a padded or re-spelled header is refused
// like a torn one, and the length is checked before the payload is
// hashed. On ErrRecordChecksum rest is still the bytes after the
// record; on the other errors the framing is lost and rest is nil.
func NextRecord(magic string, data []byte) (payload, rest []byte, err error) {
	// The longest header: magic, two spaces, the length, the checksum and
	// the newline.
	limit := len(magic) + maxLengthDigits + 2*sha256.Size + 3
	nl := bytes.IndexByte(data[:min(len(data), limit)], '\n')
	switch {
	case nl < 0 && len(data) >= limit:
		return nil, nil, ErrRecordHeader
	case nl < 0:
		return nil, nil, ErrRecordTorn
	}
	header, body := data[:nl], data[nl+1:]
	if len(header) <= len(magic) || string(header[:len(magic)]) != magic || header[len(magic)] != ' ' {
		return nil, nil, ErrRecordHeader
	}
	header = header[len(magic)+1:]
	sp := bytes.IndexByte(header, ' ')
	if sp < 1 || sp > maxLengthDigits || (header[0] == '0' && sp > 1) || len(header)-sp-1 != 2*sha256.Size {
		return nil, nil, ErrRecordHeader
	}
	var n int64
	for _, c := range header[:sp] {
		if c < '0' || c > '9' {
			return nil, nil, ErrRecordHeader
		}
		n = 10*n + int64(c-'0')
	}
	if n > int64(len(body)) {
		return nil, nil, ErrRecordTorn
	}
	payload, rest = body[:n], body[n:]
	digest := sha256.Sum256(payload)
	var sum [2 * sha256.Size]byte
	hex.Encode(sum[:], digest[:])
	if string(header[sp+1:]) != string(sum[:]) {
		return nil, rest, ErrRecordChecksum
	}
	return payload, rest, nil
}

// DecodeRecord validates a file holding exactly one framed record,
// returning the payload only when the bytes are exactly what EncodeRecord
// writes for it.
func DecodeRecord(magic string, data []byte) ([]byte, bool) {
	payload, rest, err := NextRecord(magic, data)
	if err != nil || len(rest) != 0 {
		return nil, false
	}
	return payload, true
}
