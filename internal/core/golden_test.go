package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sim"
)

// update rewrites testdata/golden/channels.jsonl from the current code:
//
//	go test ./internal/core -run TestChannelGolden -update
//
// A golden diff in review is then a deliberate decision, never a side
// effect of an ordinary test run.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// channelGolden is one line of channels.jsonl: one entry point run on one
// machine with one Options row. It holds the Result scalars and SHA-256
// digests of Decoded and Latencies, or the error text. RunReliable lines
// add the coding statistics and a digest of the recovered data.
type channelGolden struct {
	Machine string `json:"machine"`
	Options string `json:"options"`
	Entry   string `json:"entry"`
	Error   string `json:"error,omitempty"`

	Channel                 string  `json:"channel,omitempty"`
	Bits                    int     `json:"bits,omitempty"`
	Correct                 int     `json:"correct,omitempty"`
	Cycles                  int64   `json:"cycles,omitempty"`
	SenderCycles            int64   `json:"sender_cycles,omitempty"`
	ReceiverCycles          int64   `json:"receiver_cycles,omitempty"`
	ThroughputMbps          float64 `json:"throughput_mbps,omitempty"`
	EffectiveThroughputMbps float64 `json:"effective_throughput_mbps,omitempty"`
	ErrorRate               float64 `json:"error_rate,omitempty"`
	DecodedSHA256           string  `json:"decoded_sha256,omitempty"`
	Latencies               int     `json:"latencies,omitempty"`
	LatenciesSHA256         string  `json:"latencies_sha256,omitempty"`

	RawBits        int     `json:"raw_bits,omitempty"`
	Corrections    int     `json:"corrections,omitempty"`
	ResidualErrors int     `json:"residual_errors,omitempty"`
	GoodputMbps    float64 `json:"goodput_mbps,omitempty"`
	DataSHA256     string  `json:"data_sha256,omitempty"`
}

// goldenMachines are the machines every entry point runs on: quiet and
// noisy, RowHammer maintenance, both adaptive ACT settings, a small LLC
// (eviction sets, flush path), and a bank-partitioned controller whose
// banks all belong to the receiver (the error path).
func goldenMachines() []struct {
	name string
	cfg  sim.Config
} {
	quiet := sim.DefaultConfig()
	quiet.Noise.EventsPerMCycle = 0
	noisy := sim.DefaultConfig()
	noisy.Noise.EventsPerMCycle = 250
	rfm := quiet
	rfm.DRAM.Maintenance = dram.DDR5RFM()
	mild, aggressive := quiet, quiet
	mild.Mem.Defense, mild.Mem.ACT = memctrl.DefenseAdaptive, memctrl.ACTMild()
	aggressive.Mem.Defense, aggressive.Mem.ACT = memctrl.DefenseAdaptive, memctrl.ACTAggressive()
	small := quiet
	small.LLCBytes, small.LLCWays = 1<<20, 4
	partition := quiet
	partition.Mem.Defense = memctrl.DefensePartition
	return []struct {
		name string
		cfg  sim.Config
	}{
		{"quiet", quiet},
		{"default", sim.DefaultConfig()},
		{"noise-250", noisy},
		{"ddr5-rfm", rfm},
		{"act-mild", mild},
		{"act-aggressive", aggressive},
		{"llc-1mib-4way", small},
		{"partition", partition},
	}
}

// goldenOptions are the Options rows: the zero value, recorded latencies,
// a threshold override, even and odd unordered bank sets, a single bank
// (RunPnMPipelined's fallback) and a maintenance-stall filter, which only
// the PIM channels apply.
func goldenOptions() []struct {
	name string
	opt  Options
} {
	return []struct {
		name string
		opt  Options
	}{
		{"zero", Options{}},
		{"latencies", Options{RecordLatencies: true}},
		{"threshold-180", Options{Threshold: 180}},
		{"banks-even8", Options{Banks: []int{0, 2, 4, 6, 8, 10, 12, 14}}},
		{"banks-5-1-9", Options{Banks: []int{5, 1, 9}}},
		{"banks-7", Options{Banks: []int{7}}},
		{"stall-910", Options{MaintenanceStall: dram.DDR5RFM().MitigationPenalty, RecordLatencies: true}},
	}
}

// goldenEntries are the exported covert-channel entry points.
var goldenEntries = []struct {
	name string
	run  func(*sim.Machine, []bool, Options) (Result, error)
}{
	{"RunPnM", RunPnM},
	{"RunPuM", RunPuM},
	{"RunDirect", RunDirect},
	{"RunDMA", RunDMA},
	{"RunDRAMAClflush", RunDRAMAClflush},
	{"RunDRAMAEviction", RunDRAMAEviction},
	{"RunPnMAdaptive", RunPnMAdaptive},
	{"RunPnMPipelined", RunPnMPipelined},
	{"RunReliable", nil}, // RunReliable over RunPnM
}

// goldenMessageBits is not a multiple of any bank count above, so every
// run ends on a partial batch.
const goldenMessageBits = 301

// sum returns the hex SHA-256 of data.
func sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// bitsDigest hashes a bit string as '0'/'1' bytes.
func bitsDigest(bits []bool) string {
	b := make([]byte, len(bits))
	for i, bit := range bits {
		b[i] = '0'
		if bit {
			b[i] = '1'
		}
	}
	return sum(b)
}

// fill copies res into line.
func (line *channelGolden) fill(res Result) {
	line.Channel = res.Channel
	line.Bits, line.Correct = res.Bits, res.Correct
	line.Cycles, line.SenderCycles, line.ReceiverCycles = res.Cycles, res.SenderCycles, res.ReceiverCycles
	line.ThroughputMbps, line.EffectiveThroughputMbps = res.ThroughputMbps, res.EffectiveThroughputMbps
	line.ErrorRate = res.ErrorRate
	line.DecodedSHA256 = bitsDigest(res.Decoded)
	if len(res.Latencies) > 0 {
		var buf bytes.Buffer
		for _, lat := range res.Latencies {
			fmt.Fprintf(&buf, "%d\n", lat)
		}
		line.Latencies, line.LatenciesSHA256 = len(res.Latencies), sum(buf.Bytes())
	}
}

// newGoldenMachine builds a fresh machine; under the partitioning defense
// the receiver (core 1) owns every bank, so the sender is denied.
func newGoldenMachine(t *testing.T, cfg sim.Config) *sim.Machine {
	t.Helper()
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mem.Defense == memctrl.DefensePartition {
		for b := 0; b < m.Device().NumBanks(); b++ {
			if err := m.Controller().SetOwner(b, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// TestChannelGolden pins every covert-channel entry point, on every golden
// machine and Options row, against testdata/golden/channels.jsonl.
func TestChannelGolden(t *testing.T) {
	msg := RandomMessage(goldenMessageBits, 0x60d)
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, mc := range goldenMachines() {
		for _, oc := range goldenOptions() {
			for _, ec := range goldenEntries {
				line := channelGolden{Machine: mc.name, Options: oc.name, Entry: ec.name}
				m := newGoldenMachine(t, mc.cfg)
				if ec.run != nil {
					res, err := ec.run(m, msg, oc.opt)
					if err != nil {
						line.Error = err.Error()
					} else {
						line.fill(res)
					}
				} else {
					rel, err := RunReliable(m, msg, oc.opt, RunPnM)
					if err != nil {
						line.Error = err.Error()
					} else {
						line.fill(rel.Raw)
						line.RawBits, line.Corrections = rel.Coded.RawBits, rel.Coded.Corrections
						line.ResidualErrors, line.GoodputMbps = rel.Coded.ResidualErrors, rel.GoodputMbps
						line.DataSHA256 = bitsDigest(rel.Coded.Data)
					}
				}
				if err := enc.Encode(line); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	path := filepath.Join("testdata", "golden", "channels.jsonl")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("channels.jsonl line %d differs:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("channels.jsonl has %d lines, want %d", len(gotLines), len(wantLines))
}
