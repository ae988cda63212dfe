package sim

import "repro/internal/stats"

// Noise injects background DRAM activity: the hardware prefetchers and page
// table walkers the paper simulates to perturb the attacks (Section 5.2.3).
// Events are row activations at deterministic pseudo-random times, banks and
// rows, so every experiment is reproducible while still experiencing
// realistic interference.
type Noise struct {
	m    *Machine
	cfg  NoiseConfig
	rng  stats.RNG
	last int64
	// gap is the mean inter-event gap in cycles (0 disables noise).
	gap float64
	// next is the pre-drawn time of the next event.
	next   int64
	events int64
}

func newNoise(m *Machine, cfg NoiseConfig) *Noise {
	n := &Noise{m: m}
	n.reset(cfg)
	return n
}

// reset returns the source to the state newNoise builds for cfg: the RNG
// reseeded, the event count zeroed and the first event redrawn.
func (n *Noise) reset(cfg NoiseConfig) {
	*n = Noise{m: n.m, cfg: cfg, rng: *stats.NewRNG(cfg.Seed)}
	if cfg.EventsPerMCycle > 0 {
		n.gap = 1e6 / cfg.EventsPerMCycle
		n.next = n.draw(0)
	}
}

// draw samples the next event time after t with an exponential-ish gap
// (uniform in [0.5, 1.5] x mean, which is close enough for interference
// purposes and cheaper than a log).
func (n *Noise) draw(t int64) int64 {
	jitter := 0.5 + n.rng.Float64()
	return t + int64(n.gap*jitter) + 1
}

// AdvanceTo injects all noise events with timestamps <= t.
func (n *Noise) AdvanceTo(t int64) {
	if n.gap <= 0 || t <= n.last {
		return
	}
	dev := n.m.device
	banks := dev.NumBanks()
	rows := n.m.cfg.DRAM.RowsPerBank
	for n.next <= t {
		bank := n.rng.Intn(banks)
		row := n.rng.Int63() % rows
		// Background activity opens rows directly at the device: it is
		// other processes' traffic, not the attacker's, so it must not
		// appear in the attacker's latency accounting — only in the
		// bank state it leaves behind.
		_, _ = dev.Activate(n.next, bank, row)
		n.events++
		n.next = n.draw(n.next)
	}
	n.last = t
}

// Events returns the number of injected events so far.
func (n *Noise) Events() int64 { return n.events }
