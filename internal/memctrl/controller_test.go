package memctrl

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/dram"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	dev, err := dram.NewDevice(dram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, cfg)
}

func TestControllerAddsRequestOverhead(t *testing.T) {
	c := newTestController(t, Config{Defense: DefenseNone, RequestOverhead: 15})
	res, err := c.Access(0, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := dram.DDR4_2400().EmptyLatency() + 15
	if res.Latency != want {
		t.Fatalf("latency = %d, want %d", res.Latency, want)
	}
}

func TestConstantTimePadsEverything(t *testing.T) {
	c := newTestController(t, Config{Defense: DefenseConstantTime, RequestOverhead: 15})
	worst := dram.DDR4_2400().WorstCaseLatency() + 15
	var latencies []int64
	// Hit, empty and conflict paths must all observe the same latency.
	for _, row := range []int64{5, 5, 9} {
		res, err := c.Access(int64(len(latencies))*1000, 0, row, 0)
		if err != nil {
			t.Fatal(err)
		}
		latencies = append(latencies, res.Latency)
	}
	for i, lat := range latencies {
		if lat != worst {
			t.Fatalf("access %d latency = %d, want constant %d", i, lat, worst)
		}
	}
}

func TestClosedRowPolicyPrechargesAfterAccess(t *testing.T) {
	c := newTestController(t, Config{Defense: DefenseClosedRow, RequestOverhead: 0})
	first, err := c.Access(0, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The same row again: under CRP it must be an activation (empty), not
	// a hit — the timing channel's hit/conflict distinction is gone.
	res, err := c.Access(first.CompletedAt+500, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dram.OutcomeEmpty {
		t.Fatalf("outcome under CRP = %v, want empty", res.Outcome)
	}
}

func TestPartitionDefense(t *testing.T) {
	c := newTestController(t, Config{Defense: DefensePartition, RequestOverhead: 0})
	if err := c.SetOwner(3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access(0, 3, 5, 1); err != nil {
		t.Fatalf("owner access rejected: %v", err)
	}
	_, err := c.Access(100, 3, 5, 2)
	if !errors.Is(err, ErrPartitionViolation) {
		t.Fatalf("cross-process access error = %v, want ErrPartitionViolation", err)
	}
	// Unowned banks remain accessible to anyone.
	if _, err := c.Access(200, 4, 5, 2); err != nil {
		t.Fatalf("unowned bank rejected: %v", err)
	}
	if err := c.SetOwner(99, 1); err == nil {
		t.Fatal("SetOwner accepted out-of-range bank")
	}
}

func TestACTTriggersAfterThreshold(t *testing.T) {
	cfg := Config{Defense: DefenseAdaptive, RequestOverhead: 0, ACT: ACTConfig{
		EpochCycles: 1000, ConflictThreshold: 1, PenaltyEpochs: 10,
	}}
	c := newTestController(t, cfg)
	worst := dram.DDR4_2400().WorstCaseLatency()

	// Epoch 0: create a conflict.
	c.Access(0, 0, 1, 0)
	c.Access(200, 0, 2, 0) // conflict
	// Epoch 1..10: the bank must be padded.
	res, err := c.Access(1500, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != worst {
		t.Fatalf("epoch-1 latency = %d, want padded %d", res.Latency, worst)
	}
	if !c.ConstantTimeActive(1500, 0) {
		t.Fatal("ConstantTimeActive = false during penalty")
	}
	// After the penalty expires (epoch 11+), a quiet bank serves default
	// latency again.
	res, err = c.Access(12_500, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency == worst {
		t.Fatalf("latency still padded after penalty expiry")
	}
}

func TestACTConservativeNeedsFiveConflicts(t *testing.T) {
	cfg := Config{Defense: DefenseAdaptive, RequestOverhead: 0, ACT: ACTConservative()}
	c := newTestController(t, cfg)
	// Three conflicts in one epoch: below the threshold of five.
	now := int64(0)
	for i := 0; i < 4; i++ {
		res, err := c.Access(now, 0, int64(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		now = res.CompletedAt + 1
	}
	if c.ConstantTimeActive(now, 0) {
		t.Fatal("conservative ACT armed below threshold")
	}
}

func TestACTOtherBanksUnaffected(t *testing.T) {
	cfg := Config{Defense: DefenseAdaptive, RequestOverhead: 0, ACT: ACTAggressive()}
	c := newTestController(t, cfg)
	c.Access(0, 0, 1, 0)
	c.Access(200, 0, 2, 0) // conflict in bank 0
	// Roll into the next epoch on bank 0 to arm the penalty.
	c.Access(3000, 0, 3, 0)
	if !c.ConstantTimeActive(3100, 0) {
		t.Fatal("bank 0 not padded")
	}
	if c.ConstantTimeActive(3100, 1) {
		t.Fatal("bank 1 padded without any conflicts")
	}
}

func TestPaddingNeverShortensLatency(t *testing.T) {
	c := newTestController(t, Config{Defense: DefenseConstantTime, RequestOverhead: 0})
	// Force a stall longer than the worst-case latency by hammering the
	// same bank back-to-back; padding must not hide the real latency.
	var now int64
	var prev int64
	for i := 0; i < 4; i++ {
		res, err := c.Access(now, 0, int64(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency < prev-now {
			t.Fatalf("padded latency %d shorter than remaining busy time", res.Latency)
		}
		prev = res.CompletedAt
		// Do not advance now: every access queues behind the previous.
	}
}

func TestRowCloneUnderConstantTime(t *testing.T) {
	c := newTestController(t, Config{Defense: DefenseConstantTime, RequestOverhead: 0})
	hit, err := c.RowClone(0, 0, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	conflict, err := c.RowClone(hit.CompletedAt+500, 0, 3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Latency != conflict.Latency {
		t.Fatalf("rowclone latencies differ under CTD: %d vs %d", hit.Latency, conflict.Latency)
	}
}

// TestActivateIsNeverPadded pins the one asymmetry of the settle step:
// no defense pads Activate, and ACT only observes its outcome. The
// sender's row opens are fire-and-forget, so padding them would cost
// nothing observable, only simulated time.
func TestActivateIsNeverPadded(t *testing.T) {
	act := ACTConfig{EpochCycles: 1000, ConflictThreshold: 1, PenaltyEpochs: 10}
	// Empty, conflict in epoch 0 (arming ACT), then conflict in epoch 1.
	run := func(cfg Config) (*Controller, []int64) {
		c := newTestController(t, cfg)
		var lats []int64
		for i, now := range []int64{0, 200, 1500} {
			res, err := c.Activate(now, 0, int64(i+1), 0)
			if err != nil {
				t.Fatal(err)
			}
			lats = append(lats, res.Latency)
		}
		return c, lats
	}
	_, want := run(Config{Defense: DefenseNone, RequestOverhead: 15})
	for _, cfg := range []Config{
		{Defense: DefenseConstantTime, RequestOverhead: 15},
		{Defense: DefenseAdaptive, RequestOverhead: 15, ACT: act},
	} {
		c, got := run(cfg)
		if !slices.Equal(got, want) {
			t.Errorf("%v: Activate latencies %v, want the unpadded %v", cfg.Defense, got, want)
		}
		if n := c.Counters().Value(CounterACTPadded); n != 0 {
			t.Errorf("%v: act_padded = %d after Activates only, want 0", cfg.Defense, n)
		}
		if cfg.Defense == DefenseAdaptive && !c.ConstantTimeActive(1500, 0) {
			t.Error("ACT did not observe the conflicting Activate")
		}
	}
}

func TestDefenseString(t *testing.T) {
	wants := map[Defense]string{
		DefenseNone: "none", DefensePartition: "mpr", DefenseClosedRow: "crp",
		DefenseConstantTime: "ctd", DefenseAdaptive: "act", Defense(99): "unknown",
	}
	for d, want := range wants {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
}
