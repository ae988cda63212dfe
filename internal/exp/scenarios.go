package exp

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/pkg/api"
)

// scenario is one runnable experiment kind. Config-sensitive scenarios
// take a sim.Machine for the run's resolved sim.Config from the engine's
// machine pool (a nil pool builds fresh), so grids over config fields
// sweep real system parameters without paying full machine assembly per
// run. Figure scenarios replay a paper artifact at its fixed configs;
// they ignore this pool and draw their machines from the figures
// package's own.
type scenario struct {
	Name            string `json:"name"`
	Description     string `json:"description"`
	ConfigSensitive bool   `json:"config_sensitive"`

	run func(pool *sim.Pool, cfg sim.Config, scale figures.Scale) (figures.Report, error)
}

// covertReport renders one covert-channel result in the same Report shape
// the figure generators emit, so every scenario serializes identically.
func covertReport(name string, res core.Result) figures.Report {
	return figures.Report{
		ID:    name,
		Title: fmt.Sprintf("%s covert channel (%d bits)", res.Channel, res.Bits),
		Rows: []figures.Row{
			{Label: "throughput", Paper: "-", Measured: fmt.Sprintf("%.2f Mb/s", res.ThroughputMbps)},
			{Label: "effective throughput", Paper: "-", Measured: fmt.Sprintf("%.2f Mb/s", res.EffectiveThroughputMbps)},
			{Label: "error rate", Paper: "-", Measured: fmt.Sprintf("%.2f%%", res.ErrorRate*100)},
			{Label: "transmission time", Paper: "-", Measured: fmt.Sprintf("%d cyc", res.Cycles)},
			{Label: "sender busy", Paper: "-", Measured: fmt.Sprintf("%d cyc", res.SenderCycles)},
			{Label: "receiver busy", Paper: "-", Measured: fmt.Sprintf("%d cyc", res.ReceiverCycles)},
		},
	}
}

// testScenarios holds extra registry entries injected by tests (for
// example a microsecond-cost synthetic scenario that makes a 10^5-run
// memory-bound sweep affordable). Production code never appends to it.
var testScenarios []scenario

// builtinScenarios is the production registry in presentation order: one
// config-sensitive scenario covert-<name> per entry of core.Channels, the
// i-th with message seed 101+i, then every paper artifact from the figures
// registry. It is built once per process and never written.
var builtinScenarios = sync.OnceValue(func() []scenario {
	var out []scenario
	for i, ch := range core.Channels() {
		// Each covert scenario has its own message seed (mirroring the
		// figure generators), so no two transmit the same bit string.
		name, seed := "covert-"+ch.Name, uint64(101+i)
		out = append(out, scenario{
			Name:            name,
			Description:     ch.Description,
			ConfigSensitive: true,
			run: func(pool *sim.Pool, cfg sim.Config, scale figures.Scale) (figures.Report, error) {
				m, err := pool.Get(cfg)
				if err != nil {
					return figures.Report{}, err
				}
				defer pool.Put(m)
				msg := core.RandomMessage(scale.Bits(), seed)
				res, err := ch.Run(m, msg, core.Options{})
				if err != nil {
					return figures.Report{}, err
				}
				return covertReport(name, res), nil
			},
		})
	}
	for _, id := range figures.IDs() {
		out = append(out, scenario{
			Name:        id,
			Description: fmt.Sprintf("paper artifact %q from the figures registry", id),
			run: func(_ *sim.Pool, _ sim.Config, scale figures.Scale) (figures.Report, error) {
				return figures.Run(id, scale)
			},
		})
	}
	return out
})

// scenarios returns the full registry in presentation order: the built-in
// entries, then any test-injected ones.
func scenarios() []scenario {
	return slices.Concat(builtinScenarios(), testScenarios)
}

// ScenarioNames lists every runnable scenario in presentation order.
func ScenarioNames() []string {
	scns := scenarios()
	out := make([]string, len(scns))
	for i, s := range scns {
		out[i] = s.Name
	}
	return out
}

// ScenarioInfo describes one registry entry for API listings. The wire
// shape lives in pkg/api with the rest of the v1 contract.
type ScenarioInfo = api.ScenarioInfo

// ScenarioList returns the registry metadata in presentation order.
func ScenarioList() []ScenarioInfo {
	scns := scenarios()
	out := make([]ScenarioInfo, len(scns))
	for i, s := range scns {
		out[i] = ScenarioInfo{Name: s.Name, Description: s.Description, ConfigSensitive: s.ConfigSensitive}
	}
	return out
}

// scenarioByName resolves a registry entry without building the list
// scenarios returns.
func scenarioByName(name string) (scenario, bool) {
	for _, list := range [...][]scenario{builtinScenarios(), testScenarios} {
		for _, s := range list {
			if s.Name == name {
				return s, true
			}
		}
	}
	return scenario{}, false
}
