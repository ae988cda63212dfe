package fsio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestAtomicWriteRoundTrip pins the publish contract: the final bytes
// land at the path, and no temp file survives.
func TestAtomicWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry")
	if err := AtomicWrite(path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("read back %q, %v", got, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("dir holds %d entries after AtomicWrite, want 1", len(names))
	}
	// Overwrite is atomic too.
	if err := AtomicWrite(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2" {
		t.Fatalf("overwrite read back %q", got)
	}
}

// TestRecordFraming pins the record format: round trips succeed, any
// single-byte damage (magic, length, checksum, payload, truncation) is
// rejected, and records appended back to back split apart.
func TestRecordFraming(t *testing.T) {
	payload := []byte(`{"rows":[1,2,3]}`)
	rec := EncodeRecord("testmagic1", payload)
	if got, ok := DecodeRecord("testmagic1", rec); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, %v", got, ok)
	}
	if _, ok := DecodeRecord("othermagic", rec); ok {
		t.Fatal("foreign magic accepted")
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-1] },                         // truncated payload
		func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },               // flipped payload byte
		func(b []byte) []byte { b[0] ^= 0xff; return b },                      // damaged magic
		func(b []byte) []byte { return append(b, 'x') },                       // trailing junk
		func(b []byte) []byte { return []byte("testmagic1 3 nothex\nabc") },   // bad checksum format
		func(b []byte) []byte { return []byte("testmagic1 -1 deadbeef\nab") }, // negative length
		func(b []byte) []byte { return nil },                                  // empty file
	} {
		buf := mutate(append([]byte(nil), rec...))
		if _, ok := DecodeRecord("testmagic1", buf); ok {
			t.Fatalf("damaged record accepted: %q", buf)
		}
	}

	// Back to back, as a log holds them: NextRecord splits the records,
	// frames past a payload that fails its checksum, and tells a record
	// cut short from a header it cannot read.
	second := EncodeRecord("testmagic1", []byte("next"))
	log := append(append([]byte(nil), rec...), second...)
	got, rest, err := NextRecord("testmagic1", log)
	if err != nil || !bytes.Equal(got, payload) || !bytes.Equal(rest, second) {
		t.Fatalf("NextRecord = %q, %q, %v", got, rest, err)
	}
	log[len(rec)-1] ^= 0xff
	if _, rest, err := NextRecord("testmagic1", log); !errors.Is(err, ErrRecordChecksum) || !bytes.Equal(rest, second) {
		t.Fatalf("rotted payload: rest %q, err %v; want the next record and ErrRecordChecksum", rest, err)
	}
	for _, torn := range [][]byte{second[:5], second[:len(second)-1]} {
		if _, _, err := NextRecord("testmagic1", torn); !errors.Is(err, ErrRecordTorn) {
			t.Fatalf("NextRecord(%q) = %v, want ErrRecordTorn", torn, err)
		}
	}
	if _, _, err := NextRecord("testmagic1", []byte("testmagic1 x y\nnext")); !errors.Is(err, ErrRecordHeader) {
		t.Fatalf("malformed header: %v, want ErrRecordHeader", err)
	}
}

// TestAtomicWriteConcurrent races writers at one path: every write must
// be race-clean and the survivor must be one complete version — the
// first-write-wins store contract when identical runs land together.
// Exercised under `make race`.
func TestAtomicWriteConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry")
	versions := make([][]byte, 8)
	for i := range versions {
		versions[i] = []byte(fmt.Sprintf("version-%d", i))
	}
	var wg sync.WaitGroup
	for _, v := range versions {
		wg.Add(1)
		go func(v []byte) {
			defer wg.Done()
			if err := AtomicWrite(path, v); err != nil {
				t.Errorf("AtomicWrite: %v", err)
			}
		}(v)
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		if bytes.Equal(got, v) {
			return
		}
	}
	t.Fatalf("final contents %q are not any written version (torn write)", got)
}

// TestEnsureDir pins the synced-creation contract: deep chains appear,
// repeats are no-ops, and a file in the way errors like os.Mkdir.
func TestEnsureDir(t *testing.T) {
	base := t.TempDir()
	deep := filepath.Join(base, "a", "b", "c")
	if err := EnsureDir(deep); err != nil {
		t.Fatalf("EnsureDir: %v", err)
	}
	if fi, err := os.Stat(deep); err != nil || !fi.IsDir() {
		t.Fatalf("Stat(%s) = %v, %v", deep, fi, err)
	}
	if err := EnsureDir(deep); err != nil {
		t.Fatalf("EnsureDir (repeat): %v", err)
	}
	blocked := filepath.Join(base, "file")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := EnsureDir(blocked); !errors.Is(err, os.ErrExist) {
		t.Fatalf("EnsureDir over a file = %v, want ErrExist", err)
	}
}

// TestEnsureDirConcurrent mirrors the store's fan-out subdirectory
// creation under parallel Puts: siblings racing over a shared new
// ancestor must all succeed. Exercised under `make race`.
func TestEnsureDirConcurrent(t *testing.T) {
	base := t.TempDir()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := filepath.Join(base, "shared", fmt.Sprintf("leaf-%d", i))
			if err := EnsureDir(d); err != nil {
				t.Errorf("EnsureDir(%s): %v", d, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		d := filepath.Join(base, "shared", fmt.Sprintf("leaf-%d", i))
		if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
			t.Errorf("missing %s: %v", d, err)
		}
	}
}

// TestFailpointArmDisarm pins the hook registry: unarmed names are free,
// armed hooks fire, and disarming restores the fast path.
func TestFailpointArmDisarm(t *testing.T) {
	if err := Failpoint("fsio.test.hook"); err != nil {
		t.Fatalf("unarmed failpoint = %v", err)
	}
	injected := errors.New("injected")
	SetFailpoint("fsio.test.hook", func() error { return injected })
	defer SetFailpoint("fsio.test.hook", nil)
	if err := Failpoint("fsio.test.hook"); !errors.Is(err, injected) {
		t.Fatalf("armed failpoint = %v, want injected error", err)
	}
	if err := Failpoint("fsio.test.other"); err != nil {
		t.Fatalf("unarmed sibling fired: %v", err)
	}
	SetFailpoint("fsio.test.hook", nil)
	if err := Failpoint("fsio.test.hook"); err != nil {
		t.Fatalf("disarmed failpoint = %v", err)
	}
}
