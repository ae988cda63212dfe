package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/figures"
)

// checkGolden fails t unless got equals testdata/name byte for byte. Each
// file is the program's own stdout for the arguments the test passes, so
// regenerate one with, for example,
//
//	go run ./cmd/impact-sidechannel > cmd/impact-sidechannel/testdata/default.txt
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

func TestRunOnceSmall(t *testing.T) {
	res, err := figures.SideChannelOnce(64, 1<<16, 500, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Banks != 64 || res.Probes == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestRunSingleBankCount(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-banks", "64", "-ref-len", "65536", "-reads", "500", "-sweeps", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "banks-64.txt", out.Bytes())
}

// TestRunFigure11Sweep pins the default invocation: the Figure 11 sweep
// over 1024 to 8192 banks.
func TestRunFigure11Sweep(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "default.txt", out.Bytes())
}

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a substring of the error
	}{
		{[]string{"-reads", "-1"}, "-reads"},
		{[]string{"-ref-len", "-5"}, "-ref-len"},
		{[]string{"-banks", "-4"}, "-banks"},
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
