package cache

import (
	"slices"
	"testing"

	"repro/internal/stats"
)

// refIPStride and refStreamer are the reference models of the two
// prefetchers: the map-based tables they replaced, which drop a full table
// by making a new map and return a fresh slice per prefetch.
type refIPStride struct {
	entries map[uint64]*refStrideEntry
	max     int
}

type refStrideEntry struct {
	lastAddr   uint64
	stride     int64
	confidence int
}

func newRefIPStride(maxEntries int) *refIPStride {
	return &refIPStride{entries: make(map[uint64]*refStrideEntry, maxEntries), max: maxEntries}
}

func (p *refIPStride) Observe(pc, addr uint64) (uint64, bool) {
	e, ok := p.entries[pc]
	if !ok {
		if len(p.entries) >= p.max {
			p.entries = make(map[uint64]*refStrideEntry, p.max)
		}
		p.entries[pc] = &refStrideEntry{lastAddr: addr}
		return 0, false
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.confidence < 3 {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
	}
	e.lastAddr = addr
	if e.confidence >= 2 {
		return uint64(int64(addr) + e.stride), true
	}
	return 0, false
}

type refStreamer struct {
	streams map[uint64]uint64 // page -> last line offset
	max     int
	degree  int
}

func newRefStreamer(maxStreams, degree int) *refStreamer {
	return &refStreamer{streams: make(map[uint64]uint64, maxStreams), max: maxStreams, degree: degree}
}

func (p *refStreamer) Observe(addr uint64) []uint64 {
	const pageBits = 12
	const lineBits = 6
	page := addr >> pageBits
	lineOff := (addr >> lineBits) & ((1 << (pageBits - lineBits)) - 1)
	last, ok := p.streams[page]
	if len(p.streams) >= p.max && !ok {
		p.streams = make(map[uint64]uint64, p.max)
	}
	p.streams[page] = lineOff
	if !ok || lineOff != last+1 {
		return nil
	}
	out := make([]uint64, 0, p.degree)
	for i := 1; i <= p.degree; i++ {
		next := lineOff + uint64(i)
		if next >= 1<<(pageBits-lineBits) {
			break
		}
		out = append(out, (page<<pageBits)|(next<<lineBits))
	}
	return out
}

// TestPrefetchersMatchReference drives both prefetchers and their
// reference models with the same seeded observations and requires the
// same answer at every step, a nil streamer result where the reference
// returns nil and an empty one where it returns empty. Each load PC walks
// its own stride over a pool of pages, so strides get confirmed, streams
// continue and run off the end of their page. Every 5,000 steps the
// numbers of live PCs and pages move between below, at and above the
// table size, so full tables drop. Halfway the prefetchers are Reset and
// the references replaced by fresh ones. Last, Observe on full tables must
// allocate nothing.
func TestPrefetchersMatchReference(t *testing.T) {
	const steps = 100_000
	strides := []int64{64, 64, 64, -64, 128, 0, 4096}
	for _, size := range []int{1, 4, 16, 64} {
		spans := []int{max(size/2, 1), size, size + 1, 3*size + 1}
		for _, degree := range []int{0, 1, 2, 4} {
			ip, refIP := NewIPStridePrefetcher(size), newRefIPStride(size)
			st, refSt := NewStreamerPrefetcher(size, degree), newRefStreamer(size, degree)
			rng := stats.NewRNG(uint64(size)<<8 | uint64(degree))
			addrs := make([]uint64, 3*size+1)
			walks := make([]int64, len(addrs))
			var pcs, pages, confident, prefetched, truncated int
			for i := 0; i < steps; i++ {
				if i%5_000 == 0 {
					pcs, pages = spans[rng.Intn(len(spans))], spans[rng.Intn(len(spans))]
				}
				if i == steps/2 {
					ip.Reset()
					st.Reset()
					refIP, refSt = newRefIPStride(size), newRefStreamer(size, degree)
				}
				j := rng.Intn(pcs)
				switch rng.Intn(16) {
				case 0:
					addrs[j] = uint64(rng.Intn(pages << 12))
				case 1:
					walks[j] = strides[rng.Intn(len(strides))]
				default:
					addrs[j] = uint64(int64(addrs[j])+walks[j]) % uint64(pages<<12)
				}
				pc, addr := 0x400+uint64(j)*4, addrs[j]

				g, gok := ip.Observe(pc, addr)
				w, wok := refIP.Observe(pc, addr)
				if g != w || gok != wok {
					t.Fatalf("size %d degree %d step %d: IP-stride (pc %#x, addr %#x) = %#x %v, reference %#x %v",
						size, degree, i, pc, addr, g, gok, w, wok)
				}
				gs, ws := st.Observe(addr), refSt.Observe(addr)
				if (gs == nil) != (ws == nil) || !slices.Equal(gs, ws) {
					t.Fatalf("size %d degree %d step %d: streamer (addr %#x) = %#v, reference %#v",
						size, degree, i, addr, gs, ws)
				}
				if gok {
					confident++
				}
				if ws != nil {
					prefetched++
					if len(ws) < degree {
						truncated++
					}
				}
			}
			if confident == 0 || prefetched == 0 || (degree > 0 && truncated == 0) {
				t.Fatalf("size %d degree %d: the stream missed a branch: %d stride prefetches, %d stream prefetches, %d truncated at a page end",
					size, degree, confident, prefetched, truncated)
			}
		}
	}

	ip, st := NewIPStridePrefetcher(64), NewStreamerPrefetcher(16, 2)
	var n uint64
	observe := func() {
		n++
		ip.Observe(n, n<<6)    // a new PC: the full table drops
		st.Observe(n << 12)    // a new page: the full table drops
		st.Observe(n<<12 | 64) // continues the stream: two prefetches
	}
	for n < 100 {
		observe()
	}
	if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
		t.Fatalf("Observe on full prefetcher tables allocates %.1f objects per round", allocs)
	}
}
