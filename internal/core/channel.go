package core

import (
	"repro/internal/sim"
)

// Row indices used by the covert channels. Sender and receiver co-locate
// data in the same banks via memory massaging (Machine.AddrFor) but use
// distinct rows, so a sender activation forces a row-buffer conflict against
// the receiver's initialized row.
const (
	receiverInitRow = 1000
	senderRow       = 2000
	receiverSrcRow  = 3000
	receiverDstRow  = 3001
	senderSrcRow    = 4000
	senderDstRow    = 4001
)

const cacheLineBytes = 64

// channel is what one covert channel supplies to the batch protocol of
// transmit (docs/architecture.md, "Covert-channel protocol"): the banks a
// batch travels through, the decode threshold, how the sender encodes a
// batch and how the receiver times one bank. Everything else is the
// protocol's.
type channel struct {
	name      string
	banks     []int
	threshold int64
	// stall is the maintenance stall the receiver filters out of its
	// probes (Options.MaintenanceStall; the PIM channels only).
	stall int64
	// fenceSender and fenceReceiver end that party's batch with a fence.
	fenceSender, fenceReceiver bool
	// idle, when set, runs before each batch outside both parties' busy
	// time.
	idle func()
	// send encodes one batch on the sender core.
	send func(b batch) error
	// probe times the receiver's access to bank during batch k.
	probe func(k, bank int) (int64, error)
}

// batch is one slice of the message: bits[i] travels through banks[i], and
// k numbers the batch for per-batch addressing.
type batch struct {
	k     int
	bits  []bool
	banks []int
}

// sendBits is the sender loop of every channel but IMPACT-PuM: per bit of
// b, cost cycles of encoding work, then activate to open a conflicting row
// in the bit's bank when the bit is 1.
func sendBits(s *sim.Core, cost int64, b batch, activate func(bank int) error) error {
	for i, bit := range b.bits {
		s.Advance(cost)
		if bit {
			if err := activate(b.banks[i]); err != nil {
				return err
			}
		}
		s.LoopTick()
	}
	return nil
}

// transmission is one run of a channel from core 0 (the sender) to core 1
// (the receiver).
type transmission struct {
	ch               channel
	sender, receiver *sim.Core
	recordLatencies  bool
	decodeCost       int64
	start            int64
	res              Result
	decoded          []bool
}

// begin builds the channel on the core pair with setup, then starts the
// clock: the sender does not start before the receiver's initialization
// completes.
func begin(m *sim.Machine, msg []bool, opt Options, setup func(s, r *sim.Core) (channel, error)) (transmission, error) {
	s, r := m.Core(0), m.Core(1)
	if s == nil || r == nil {
		return transmission{}, ErrProtocol
	}
	ch, err := setup(s, r)
	if err != nil {
		return transmission{}, err
	}
	s.AdvanceTo(r.Now())
	return transmission{
		ch:              ch,
		sender:          s,
		receiver:        r,
		recordLatencies: opt.RecordLatencies,
		decodeCost:      m.Config().Costs.DecodeCost,
		start:           r.Now(),
		res:             Result{Channel: ch.name},
		decoded:         make([]bool, 0, len(msg)),
	}, nil
}

// transmit sends msg over the channel setup builds, one batch of
// len(banks) bits at a time (Listings 1 and 2): the sender encodes the
// batch and posts a semaphore; the receiver waits, probes and decodes each
// bank, and acks.
func transmit(m *sim.Machine, msg []bool, opt Options, setup func(s, r *sim.Core) (channel, error)) (Result, error) {
	t, err := begin(m, msg, opt, setup)
	if err != nil {
		return Result{}, err
	}
	sent, acked := sim.NewSemaphore(m), sim.NewSemaphore(m)
	n := len(t.ch.banks)
	for k := 0; k*n < len(msg); k++ {
		b := batch{k: k, bits: msg[k*n : min(k*n+n, len(msg))], banks: t.ch.banks}
		if t.ch.idle != nil {
			t.ch.idle()
		}
		if err := t.sendBatch(b); err != nil {
			return Result{}, err
		}
		sent.Post(t.sender)
		if !sent.Wait(t.receiver) {
			return Result{}, ErrProtocol
		}
		if err := t.receiveBatch(b); err != nil {
			return Result{}, err
		}
		acked.Post(t.receiver)
		if !acked.Wait(t.sender) {
			return Result{}, ErrProtocol
		}
		m.AdvanceNoise(t.receiver.Now())
	}
	return t.finish(msg, t.receiver.Now()), nil
}

// sendBatch runs the sender's half of batch b and charges its busy time.
func (t *transmission) sendBatch(b batch) error {
	start := t.sender.Now()
	if err := t.ch.send(b); err != nil {
		return err
	}
	if t.ch.fenceSender {
		t.sender.Fence() // Listing 1 line 17, Listing 2 line 22
	}
	t.res.SenderCycles += t.sender.Now() - start
	return nil
}

// receiveBatch runs the receiver's half of batch b: one timed probe per
// bit, each latency filtered and thresholded into a decoded bit, and
// charges its busy time.
func (t *transmission) receiveBatch(b batch) error {
	r := t.receiver
	start := r.Now()
	for i := range b.bits {
		lat, err := t.ch.probe(b.k, b.banks[i])
		if err != nil {
			return err
		}
		lat = filterMaintenance(lat, t.ch.threshold, t.ch.stall)
		if t.recordLatencies {
			t.res.Latencies = append(t.res.Latencies, lat)
		}
		t.decoded = append(t.decoded, lat > t.ch.threshold)
		r.Advance(t.decodeCost)
		r.LoopTick()
	}
	if t.ch.fenceReceiver {
		r.Fence() // Listing 1 line 32, Listing 2 line 38
	}
	t.res.ReceiverCycles += r.Now() - start
	return nil
}

// finish computes the derived metrics of a transmission that ended at end
// on the simulated clock.
func (t *transmission) finish(msg []bool, end int64) Result {
	t.res.finalize(msg, t.decoded, end-t.start)
	return t.res
}

// filterMaintenance removes one known maintenance stall from a measured
// latency when the measurement could not otherwise exceed the decode range.
func filterMaintenance(lat, threshold, stall int64) int64 {
	if stall <= 0 {
		return lat
	}
	// Anything beyond threshold + stall/2 must contain a stall.
	if lat > threshold+stall/2 {
		lat -= stall
	}
	if lat < 0 {
		lat = 0
	}
	return lat
}

// warmup runs the per-bank probe and disturb paths of a baseline once before
// timing starts, mirroring the paper's Section 5.2.1 warm-up that avoids
// compulsory TLB and page-table misses during measurement. The sender's
// warm-up runs first so the receiver's pass leaves its own rows in the row
// buffers.
func warmup(banks []int, senderTouch, receiverProbe func(bank int)) {
	for _, b := range banks {
		senderTouch(b)
	}
	for _, b := range banks {
		receiverProbe(b)
	}
}

// calibrated returns a baseline's decode threshold: Options.Threshold when
// set, otherwise the offline calibration a real attacker performs before
// transmitting. probe times one receiver access to bank; the threshold sits
// between a quiet probe and one taken after a conflicting row was opened.
func calibrated(m *sim.Machine, r *sim.Core, opt Options, bank int, probe func(bank int) int64) int64 {
	if opt.Threshold != 0 {
		return opt.Threshold
	}
	// Warm up TLBs and page-table caches so the training probes measure
	// the steady-state path, not first-touch translation misses.
	probe(bank)
	probe(bank)
	// Quiet probe: bank precharged (or holding the probe row).
	empty := probe(bank)
	// Disturbed probe: another row was opened since. A failed
	// disturbance leaves the training pair degenerate, handled below.
	_, _ = m.Device().Activate(r.Now(), bank, senderRow)
	conflict := probe(bank)
	if conflict <= empty {
		// Degenerate (e.g. constant-time defense active): fall back to
		// the paper's threshold so the attack still runs — and fails
		// honestly.
		return DefaultThresholdCycles
	}
	// Bias toward the quiet latency: the training conflict includes a tRAS
	// stall (the disturbance happened moments before the probe) that
	// steady-state conflicts do not pay.
	return empty + (conflict-empty)/4
}
