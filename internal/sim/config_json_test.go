package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// TestConfigJSONRoundTrip pins that encode/decode is lossless: the JSON
// form is the experiment engine's canonical identity for a run, so any
// field that fails to round-trip would silently decouple the cache key
// from the simulated system.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLCBytes = 16 << 20
	cfg.LLCWays = 32
	cfg.Cores = 8
	cfg.Mapping = dram.MapRowInterleaved
	cfg.Mem.Defense = memctrl.DefenseAdaptive
	cfg.Mem.ACT = memctrl.ACTAggressive()
	cfg.Noise = NoiseConfig{EventsPerMCycle: 7.5, Seed: 0xdeadbeef}
	cfg.DRAM.Maintenance = dram.DDR5RFM().WithRefresh()
	cfg.EnablePrefetchers = false

	data, err := cfg.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("round trip lost information:\nin:  %+v\nout: %+v", cfg, back)
	}

	// Encoding is deterministic byte-for-byte.
	data2, err := back.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-encoding differs:\n%s\n%s", data, data2)
	}
}

// TestConfigJSONEnumsAreStrings pins the human-readable JSON forms of the
// two enums so spec files stay greppable.
func TestConfigJSONEnumsAreStrings(t *testing.T) {
	data, err := DefaultConfig().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc["mapping"]; got != "bank-xor" {
		t.Fatalf("mapping encodes as %v, want \"bank-xor\"", got)
	}
	mem, ok := doc["mem"].(map[string]any)
	if !ok {
		t.Fatalf("mem is %T", doc["mem"])
	}
	if got := mem["defense"]; got != "none" {
		t.Fatalf("defense encodes as %v, want \"none\"", got)
	}
}

// TestFromJSONPartialOverride checks that a sparse document only overrides
// what it names, inheriting everything else from DefaultConfig.
func TestFromJSONPartialOverride(t *testing.T) {
	cfg, err := FromJSON([]byte(`{"llc_bytes": 4194304, "mem": {"defense": "crp"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LLCBytes != 4<<20 {
		t.Fatalf("llc_bytes = %d", cfg.LLCBytes)
	}
	if cfg.Mem.Defense != memctrl.DefenseClosedRow {
		t.Fatalf("defense = %v", cfg.Mem.Defense)
	}
	def := DefaultConfig()
	if cfg.Cores != def.Cores || cfg.LLCWays != def.LLCWays {
		t.Fatalf("untouched fields drifted from defaults: %+v", cfg)
	}
	if cfg.Mem.RequestOverhead != def.Mem.RequestOverhead {
		t.Fatalf("sibling field under partially-overridden struct drifted: %d", cfg.Mem.RequestOverhead)
	}
}

// TestFromJSONErrorsNameFields checks the error contract: every rejection
// names the offending field.
func TestFromJSONErrorsNameFields(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"llcbytes": 1}`, `unknown field "llcbytes"`},
		{"wrong type", `{"cores": "four"}`, `"cores"`},
		{"bad enum", `{"mapping": "diagonal"}`, `"mapping"`},
		{"bad defense", `{"mem": {"defense": "moat"}}`, `"defense"`},
		{"invalid value", `{"llc_ways": -1}`, `"llc_ways"`},
		{"invalid nested", `{"dram": {"row_bytes": 0}}`, `"dram"`},
		{"act without config", `{"mem": {"defense": "act"}}`, `"act.epoch_cycles"`},
		// Size caps: a config past any of them would exhaust host memory
		// in New, so validation stops it first.
		{"llc cap", `{"llc_bytes": 268435457}`, `"llc_bytes"`},
		{"cores cap", `{"cores": 65}`, `"cores"`},
		{"geometry factor cap", `{"dram": {"banks_per_group": 65537}}`, `"banks_per_group"`},
		{"total banks cap", `{"dram": {"channels": 256, "ranks": 256, "bank_groups": 2, "banks_per_group": 1}}`, `bank_groups`},
		{"row cap", `{"dram": {"row_bytes": 131072}}`, `"row_bytes"`},
		// A negative latency would let a command finish before it starts.
		{"negative timing", `{"dram": {"timing": {"trcd": -1000}}}`, `"timing.trcd"`},
		{"negative maintenance", `{"dram": {"maintenance": {"refresh_duration": -1}}}`, `"maintenance.refresh_duration"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromJSON([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
