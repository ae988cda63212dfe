package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmallSuite pins the reduced suite's output. Regenerate the golden
// with
//
//	go run ./cmd/impact-defense -small -bits 256 > cmd/impact-defense/testdata/small-bits-256.txt
//
// and only when a byte change is intended.
func TestRunSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("defense suite in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-small", "-bits", "256"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "small-bits-256.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from testdata/small-bits-256.txt:\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a substring of the error
	}{
		{[]string{"-small", "-bits", "-5"}, "-bits"},
		{[]string{"-not-a-flag"}, "not-a-flag"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%q) = %v, want an error naming %q", tc.args, err, tc.want)
		}
		if out.Len() > 0 {
			t.Fatalf("run(%q) printed %q before failing", tc.args, out.String())
		}
	}
}
