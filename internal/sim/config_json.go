package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// FromJSON decodes a Config from JSON, starting from DefaultConfig so a
// document only needs to spell out the fields it overrides. Unknown fields
// are rejected (with the offending field named) rather than silently
// ignored, and the decoded config is validated — this is the entry point
// the experiment engine and the HTTP service use, so every error message
// must be actionable without reading Go source.
func FromJSON(data []byte) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("sim: config: %w", prettyJSONError(err))
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// ToJSON encodes the config. Go's encoding/json emits struct fields in
// declaration order and map keys sorted, so the output is deterministic —
// the experiment cache hashes it as part of a run's identity.
func (c Config) ToJSON() ([]byte, error) {
	return json.Marshal(c)
}

// Size caps. A spec reaches sim.New from any /v1/run or /v1/jobs caller,
// and an oversized machine kills the process with an out-of-memory fault
// that recover cannot catch. Each cap is at least twice what any figure,
// test or example uses (128 MiB LLC, 128 LLC ways, 8 cores); the DRAM
// geometry caps live in dram.Config.Validate. The ways cap bounds time,
// not memory: the engine gives a run no deadline, and an eviction-set
// channel's cost grows with the square of the ways (each eviction loads
// ways lines, and each load scans a set of ways).
const (
	maxLLCBytes = 256 << 20
	maxLLCWays  = 256
	maxCores    = 64
)

// Validate reports configuration errors, naming fields by their JSON tags
// so server clients can fix specs without reading Go source.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf(`sim: field "cores": must be > 0 (got %d)`, c.Cores)
	}
	if c.Cores > maxCores {
		return fmt.Errorf(`sim: field "cores": must be <= %d (got %d)`, maxCores, c.Cores)
	}
	if c.LLCBytes <= 0 {
		return fmt.Errorf(`sim: field "llc_bytes": must be > 0 (got %d)`, c.LLCBytes)
	}
	if c.LLCBytes > maxLLCBytes {
		return fmt.Errorf(`sim: field "llc_bytes": must be <= %d (got %d)`, maxLLCBytes, c.LLCBytes)
	}
	if c.LLCWays <= 0 {
		return fmt.Errorf(`sim: field "llc_ways": must be > 0 (got %d)`, c.LLCWays)
	}
	if c.LLCWays > maxLLCWays {
		return fmt.Errorf(`sim: field "llc_ways": must be <= %d (got %d)`, maxLLCWays, c.LLCWays)
	}
	if c.LLCLatency < 0 {
		return fmt.Errorf(`sim: field "llc_latency": must be >= 0 (got %d)`, c.LLCLatency)
	}
	if c.Noise.EventsPerMCycle < 0 {
		return fmt.Errorf(`sim: field "noise.events_per_mcycle": must be >= 0 (got %g)`, c.Noise.EventsPerMCycle)
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf(`sim: field "dram": %w`, err)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf(`sim: field "mem": %w`, err)
	}
	return nil
}

// prettyJSONError rewrites encoding/json's decode errors into field-naming
// messages ("unknown field", "field X: want a number").
func prettyJSONError(err error) error {
	switch e := err.(type) {
	case *json.UnmarshalTypeError:
		field := e.Field
		if field == "" {
			field = "(document root)"
		}
		return fmt.Errorf("field %q: want %s, got JSON %s", field, e.Type, e.Value)
	case *json.SyntaxError:
		return fmt.Errorf("malformed JSON at offset %d: %v", e.Offset, e)
	}
	// DisallowUnknownFields yields an unexported error type; its message
	// already names the field (`json: unknown field "foo"`).
	if msg := err.Error(); strings.HasPrefix(msg, "json: ") {
		return fmt.Errorf("%s", strings.TrimPrefix(msg, "json: "))
	}
	return err
}
