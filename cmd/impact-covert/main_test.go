package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden fails t unless got equals testdata/name byte for byte. Each
// file is the program's own stdout for the arguments the test passes, so
// regenerate one with, for example,
//
//	go run ./cmd/impact-covert -bits 64 -sweep size > cmd/impact-covert/testdata/sweep-size.txt
//
// and only when a byte change is intended.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from testdata/%s:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestRunChannelDispatch(t *testing.T) {
	msg := make([]bool, 64)
	for _, name := range []string{"pnm", "pum", "clflush", "eviction", "dma", "direct"} {
		res, err := runChannel(name, msg, 8<<20, 16, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Bits != 64 {
			t.Fatalf("%s transmitted %d bits", name, res.Bits)
		}
	}
	if _, err := runChannel("bogus", msg, 8<<20, 16, 0); err == nil {
		t.Fatal("unknown channel accepted")
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a substring of the error
	}{
		{[]string{"-sweep", "nonsense", "-bits", "16"}, "nonsense"},
		{[]string{"-not-a-flag"}, "not-a-flag"},
		{[]string{"-bits", "-1"}, "-bits"},
		{[]string{"-llc-ways", "257"}, "llc_ways"},
		{[]string{"-llc-mb", "17592186044424"}, "-llc-mb"}, // 2^44+8 MiB wraps to 8 MiB in bytes
		{[]string{"-llc-mb", "-17592186044408"}, "-llc-mb"},
		{[]string{"-llc-mb", "0"}, "-llc-mb"},
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

// TestRunDefaultTable pins the default invocation, whose channel list
// spells the DRAMA baselines "clflush" and "eviction".
func TestRunDefaultTable(t *testing.T) {
	if err := run([]string{"-bits", "64", "-channels", "pnm"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "default.txt", out.Bytes())
}

func TestRunSweep(t *testing.T) {
	for _, sweep := range []string{"size", "ways"} {
		t.Run(sweep, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-bits", "64", "-sweep", sweep}, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "sweep-"+sweep+".txt", out.Bytes())
		})
	}
}
