package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRun pins the example's output. Regenerate the golden with
//
//	go run ./examples/covertchannel > examples/covertchannel/testdata/output.txt
//
// and only when a byte change is intended.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from testdata/output.txt:\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
