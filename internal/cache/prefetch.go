package cache

import "math/bits"

// IPStridePrefetcher implements the classic instruction-pointer stride
// prefetcher (Fu et al., MICRO'92) the paper attaches to the L1D. It tracks
// the last address and stride per program counter and, once a stride is
// confirmed twice, prefetches the next line. In the IMPACT threat model its
// job is to be a noise source: prefetches open DRAM rows the attacker did
// not ask for. It scans its small table in order; the workload and attack
// loops use at most 8 load PCs each.
type IPStridePrefetcher struct {
	entries []strideEntry // entries[:n] are tracked
	n       int
}

type strideEntry struct {
	pc, lastAddr uint64
	stride       int64
	confidence   int
}

// NewIPStridePrefetcher returns a prefetcher with a bounded table of at
// least one entry.
func NewIPStridePrefetcher(maxEntries int) *IPStridePrefetcher {
	return &IPStridePrefetcher{entries: make([]strideEntry, max(maxEntries, 1))}
}

// Observe records a demand access and returns a prefetch address if the
// stride is confident.
//
//impact:hotpath
func (p *IPStridePrefetcher) Observe(pc, addr uint64) (uint64, bool) {
	i := 0
	for i < p.n && p.entries[i].pc != pc {
		i++
	}
	if i == p.n {
		if p.n == len(p.entries) {
			// Simple capacity management: drop the table. Real designs
			// use per-set replacement; the noise behaviour is equivalent.
			p.n, i = 0, 0
		}
		p.entries[i] = strideEntry{pc: pc, lastAddr: addr}
		p.n++
		return 0, false
	}
	e := &p.entries[i]
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

// Reset empties the stride table, returning the prefetcher to its
// just-constructed state.
func (p *IPStridePrefetcher) Reset() {
	p.n = 0
}

// StreamerPrefetcher implements a simple next-line stream prefetcher
// (Chen & Baer) attached to the L2 in Table 2: when consecutive accesses
// walk forward within a page, it prefetches the next degree lines.
type StreamerPrefetcher struct {
	// slots is an open-addressed table of the tracked pages, at least four
	// slots per stream so a probe mostly reads one slot. A slot is in the
	// table only while its gen is the current gen, so dropping the table
	// is a gen bump.
	slots []stream
	mask  uint64
	gen   uint32
	n     int      // pages tracked
	max   int      // pages tracked before the table drops
	out   []uint64 // Observe's result buffer, degree long
}

type stream struct {
	page, lastLine uint64
	gen            uint32
}

// NewStreamerPrefetcher returns a streamer with the given table size (at
// least one) and prefetch degree.
func NewStreamerPrefetcher(maxStreams, degree int) *StreamerPrefetcher {
	maxStreams = max(maxStreams, 1)
	size := 1 << bits.Len(uint(4*maxStreams-1))
	return &StreamerPrefetcher{
		slots: make([]stream, size),
		mask:  uint64(size - 1),
		gen:   1,
		max:   maxStreams,
		out:   make([]uint64, max(degree, 0)),
	}
}

// Observe records a demand access and returns prefetch addresses, if any.
// The slice is the streamer's own buffer, valid until the next call.
//
//impact:hotpath
func (p *StreamerPrefetcher) Observe(addr uint64) []uint64 {
	const pageBits = 12
	const lineBits = 6
	page := addr >> pageBits
	lineOff := (addr >> lineBits) & ((1 << (pageBits - lineBits)) - 1)
	s := &p.slots[p.probe(page)]
	if s.gen != p.gen {
		if p.n == p.max {
			p.Reset() // drop the table, as the stride table does
			s = &p.slots[p.probe(page)]
		}
		*s = stream{page: page, lastLine: lineOff, gen: p.gen}
		p.n++
		return nil
	}
	last := s.lastLine
	s.lastLine = lineOff
	if lineOff != last+1 {
		return nil
	}
	// The next lines up to the degree, stopping at the end of the page.
	n := min(len(p.out), int(1<<(pageBits-lineBits)-1-lineOff))
	for k := range n {
		p.out[k] = (page << pageBits) | (lineOff+uint64(k)+1)<<lineBits
	}
	return p.out[:n]
}

// probe returns the slot holding page, or else the free slot where page
// would go. The table never fills, so a free slot ends every probe.
//
//impact:hotpath
func (p *StreamerPrefetcher) probe(page uint64) uint64 {
	i := (page * 0x9e3779b97f4a7c15 >> 32) & p.mask
	for p.slots[i].gen == p.gen && p.slots[i].page != page {
		i = (i + 1) & p.mask
	}
	return i
}

// Reset empties the stream table in O(1), returning the streamer to its
// just-constructed behaviour. On the (4-billion-drop) gen wraparound the
// slots really are cleared, so a stale slot never aliases back.
func (p *StreamerPrefetcher) Reset() {
	p.n = 0
	p.gen++
	if p.gen == 0 {
		clear(p.slots)
		p.gen = 1
	}
}
