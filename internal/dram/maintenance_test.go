package dram

import "testing"

func TestRefreshWindowStallsAccess(t *testing.T) {
	tm := DDR4_2400()
	b := NewBank(tm)
	maint := DDR4Refresh()
	b.SetMaintenance(maint)
	// An access issued right at a refresh boundary waits out tRFC.
	res := b.Access(maint.RefreshInterval, 5)
	minimum := maint.RefreshDuration + tm.EmptyLatency()
	if res.Latency < minimum {
		t.Fatalf("latency at refresh boundary = %d, want >= %d", res.Latency, minimum)
	}
}

func TestRefreshClosesOpenRows(t *testing.T) {
	tm := DDR4_2400()
	b := NewBank(tm)
	maint := DDR4Refresh()
	b.SetMaintenance(maint)
	first := b.Access(100, 5)
	// Access the same row after a refresh boundary: the refresh
	// precharged the bank, so this is an activation, not a hit.
	res := b.Access(first.CompletedAt+maint.RefreshInterval, 5)
	if res.Outcome != OutcomeEmpty {
		t.Fatalf("outcome after refresh = %v, want empty", res.Outcome)
	}
}

func TestRefreshNoEffectWithinWindow(t *testing.T) {
	tm := DDR4_2400()
	b := NewBank(tm)
	b.SetMaintenance(DDR4Refresh())
	first := b.Access(1000, 5)
	res := b.Access(first.CompletedAt+100, 5)
	if res.Outcome != OutcomeHit {
		t.Fatalf("same-interval access outcome = %v, want hit", res.Outcome)
	}
	if res.Latency != tm.HitLatency() {
		t.Fatalf("same-interval hit latency = %d", res.Latency)
	}
}

func TestMitigationTriggersEveryThresholdActivations(t *testing.T) {
	tm := DDR4_2400()
	b := NewBank(tm)
	maint := Maintenance{MitigationThreshold: 4, MitigationPenalty: 910}
	b.SetMaintenance(maint)
	now := int64(0)
	stalls := 0
	for i := 0; i < 12; i++ {
		res := b.Access(now, int64(i)) // every access is a fresh activation
		if res.Latency >= maint.MitigationPenalty {
			stalls++
		}
		now = res.CompletedAt + tm.TRAS + 10 // avoid tRAS stalls confusing the count
	}
	if stalls != 3 {
		t.Fatalf("preventive actions = %d for 12 activations at threshold 4, want 3", stalls)
	}
}

func TestMitigationIgnoresRowHits(t *testing.T) {
	tm := DDR4_2400()
	b := NewBank(tm)
	b.SetMaintenance(Maintenance{MitigationThreshold: 2, MitigationPenalty: 910})
	first := b.Access(0, 5) // activation 1
	now := first.CompletedAt + 10
	for i := 0; i < 10; i++ {
		res := b.Access(now, 5) // hits do not activate
		if res.Latency >= 910 {
			t.Fatalf("row hit %d paid a preventive action", i)
		}
		now = res.CompletedAt + 10
	}
}

func TestMaintenanceDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Maintenance.RefreshInterval != 0 || cfg.Maintenance.MitigationThreshold != 0 {
		t.Fatalf("default config enables maintenance: %+v", cfg.Maintenance)
	}
}

func TestRefreshAdjustMath(t *testing.T) {
	m := Maintenance{RefreshInterval: 1000, RefreshDuration: 100}
	tests := []struct {
		now, since     int64
		wantStart      int64
		wantRowsClosed bool
	}{
		{now: 50, since: 40, wantStart: 100, wantRowsClosed: false},
		{now: 500, since: 400, wantStart: 500, wantRowsClosed: false},
		{now: 1050, since: 900, wantStart: 1100, wantRowsClosed: true},
		{now: 2500, since: 900, wantStart: 2500, wantRowsClosed: true},
	}
	for _, tt := range tests {
		start, closed := m.refreshAdjust(tt.now, tt.since)
		if start != tt.wantStart || closed != tt.wantRowsClosed {
			t.Errorf("refreshAdjust(%d,%d) = (%d,%v), want (%d,%v)",
				tt.now, tt.since, start, closed, tt.wantStart, tt.wantRowsClosed)
		}
	}
	// Disabled: identity.
	var off Maintenance
	if start, closed := off.refreshAdjust(123, 0); start != 123 || closed {
		t.Errorf("disabled refreshAdjust = (%d,%v)", start, closed)
	}
}

func TestWithRefreshCombinator(t *testing.T) {
	m := DDR5RFM().WithRefresh()
	if m.MitigationThreshold == 0 || m.RefreshInterval == 0 {
		t.Fatalf("combined maintenance incomplete: %+v", m)
	}
}
