package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// The host gauge takes the host's speed out of the timings. On a small
// shared VM the same binary runs 10-25% faster or slower from one minute
// to the next as neighbours come and go: steal time stays near zero, the
// cores and the kernel themselves slow down, and the child's CPU time per
// op moves with them. That is wider than the regression bounds, and no
// window the time budget allows averages it away, since it changes
// between runs rather than within one.
//
// So the load generator times a fixed piece of work, which runs none of
// the program's code, every gaugeEvery between two requests, while the
// child has none to serve. Half of it is computation: a pointer chase
// around a 16 MiB random cycle (memory latency, as the simulator's large
// tables see it), SHA-256 over 512 KiB and a sort of 4096 integers. The
// other half is kernel work: round trips of a small message over a
// loopback TCP connection to an echo goroutine, the syscalls and wakeups
// every HTTP request pays. Served requests and simulations slow down with
// the two halves in different shares; measured over ten seeds on the
// reference host, their sum took more host drift out of every workload
// than either half alone. Jobs also wait on the journal's fsyncs, which
// the shared disk slows on its own schedule, so on durable-jobs each
// sample adds gaugeSyncs fsynced writes to a file beside the data dir.
// Over two sets of ten seeds that narrowed the interquartile spread of
// its timings from 5-9% to 4-7% of the median; on cold-sweep, whose ops
// write nothing, fsyncs in the gauge widened it.
//
// Every end-to-end timing is reported at the speed of the reference host,
// where one sample takes gaugeRefMs plus gaugeRefSyncMs per fsync: a time
// t measured here is reported as t * (reference sample) / (mean sample
// here), and a rate the other way round. Counts of work, such as
// allocations, are not scaled. A change to the program moves the gauge
// only through work the child does while it has no request, such as
// background writes; the traced run reports the gauge as harness.gauge_ms.
const (
	gaugeEvery = 100 * time.Millisecond
	// gaugeRefMs and gaugeRefSyncMs are the mean sample parts on the
	// reference host, a 2-vCPU Xeon VM with an ext4 disk (nproc 2,
	// go1.24), so reported timings stay close to that host's own.
	gaugeRefMs     = 4.5
	gaugeRefSyncMs = 0.3
	gaugeSyncs     = 4
	gaugeRing      = 1 << 22 // uint32 entries in the chased cycle: 16 MiB
	gaugeSteps     = 8_000
	gaugeTrips     = 100
	gaugeMsgLen    = 256
)

// gauge holds the fixed inputs of the work, its loopback connection and
// the samples taken so far. Only the load generator's goroutine uses it.
type gauge struct {
	ring       []uint32
	buf        []byte
	keys, work []uint64
	msg        []byte
	ln         net.Listener
	conn       net.Conn
	echoed     chan struct{} // closed when the echo goroutine has returned
	syncs      int           // fsynced writes per sample
	file       *os.File      // their target; nil when syncs is 0

	total   time.Duration
	samples int
	last    time.Time // when the last sample ended
	err     error     // the first loopback or disk failure
	sink    uint64    // keeps the work from being optimised away
}

// newGauge builds the inputs from a fixed seed, so every run times the
// same work, and connects to its echo goroutine; with syncs > 0 it also
// creates the fsync target in dir. close releases all of them.
func newGauge(dir string, syncs int) (*gauge, error) {
	rng := rand.New(rand.NewSource(1))
	g := &gauge{
		syncs:  syncs,
		ring:   make([]uint32, gaugeRing),
		buf:    make([]byte, 512<<10),
		keys:   make([]uint64, 4096),
		work:   make([]uint64, 4096),
		msg:    make([]byte, gaugeMsgLen),
		echoed: make(chan struct{}),
	}
	// Sattolo's algorithm makes one cycle through every entry, so the
	// chase never settles into a loop the caches could hold.
	for i := range g.ring {
		g.ring[i] = uint32(i)
	}
	for i := len(g.ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		g.ring[i], g.ring[j] = g.ring[j], g.ring[i]
	}
	rng.Read(g.buf)
	for i := range g.keys {
		g.keys[i] = rng.Uint64()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host gauge: %w", err)
	}
	g.ln = ln
	go func() {
		defer close(g.echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	if g.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-g.echoed
		return nil, fmt.Errorf("host gauge: %w", err)
	}
	if syncs > 0 {
		if g.file, err = os.Create(filepath.Join(dir, "gauge-sync")); err != nil {
			g.close()
			return nil, fmt.Errorf("host gauge: %w", err)
		}
	}
	return g, nil
}

// close ends the echo goroutine, waits for it and closes the fsync target.
func (g *gauge) close() {
	g.conn.Close() // the echo's copy reads EOF and returns
	g.ln.Close()
	<-g.echoed
	if g.file != nil {
		g.file.Close()
	}
}

// meanRefMs is one sample's mean time on the reference host.
func (g *gauge) meanRefMs() float64 { return gaugeRefMs + float64(g.syncs)*gaugeRefSyncMs }

// tick takes a sample when gaugeEvery has passed since the last one.
func (g *gauge) tick() {
	if time.Since(g.last) >= gaugeEvery {
		g.sample()
	}
}

// sample runs the work once and adds its time to the mean.
func (g *gauge) sample() {
	start := time.Now()
	x := uint32(0)
	for i := 0; i < gaugeSteps; i++ {
		x = g.ring[x]
	}
	sum := sha256.Sum256(g.buf)
	copy(g.work, g.keys)
	slices.Sort(g.work)
	for i := 0; i < gaugeTrips && g.err == nil; i++ {
		if _, err := g.conn.Write(g.msg); err != nil {
			g.err = fmt.Errorf("host gauge: %w", err)
		} else if _, err := io.ReadFull(g.conn, g.msg); err != nil {
			g.err = fmt.Errorf("host gauge: %w", err)
		}
	}
	for i := 0; i < g.syncs && g.err == nil; i++ {
		if _, err := g.file.WriteAt(g.msg, 0); err != nil {
			g.err = fmt.Errorf("host gauge: %w", err)
		} else if err := g.file.Sync(); err != nil {
			g.err = fmt.Errorf("host gauge: %w", err)
		}
	}
	g.last = time.Now()
	g.total += g.last.Sub(start)
	g.samples++
	g.sink += uint64(x) + uint64(sum[0]) + g.work[0]
}

// meanMs is the mean sample time in milliseconds.
func (g *gauge) meanMs() float64 { return ratio(float64(g.total)/1e6, float64(g.samples)) }

// scale takes a time measured on this host to the reference host.
func (g *gauge) scale() float64 { return ratio(g.meanRefMs(), g.meanMs()) }
