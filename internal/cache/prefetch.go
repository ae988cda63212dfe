package cache

// IPStridePrefetcher implements the classic instruction-pointer stride
// prefetcher (Fu et al., MICRO'92) the paper attaches to the L1D. It tracks
// the last address and stride per program counter and, once a stride is
// confirmed twice, prefetches the next line. In the IMPACT threat model its
// job is to be a noise source: prefetches open DRAM rows the attacker did
// not ask for. Both prefetchers scan small fixed tables in order; the
// workload and attack loops use at most 8 load PCs each.
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
	streams []stream // (page, last line offset) pairs; streams[:n] are tracked
	n       int
	out     []uint64 // Observe's result buffer, degree long
}

type stream struct{ page, lastLine uint64 }

// NewStreamerPrefetcher returns a streamer with the given table size (at
// least one) and prefetch degree.
func NewStreamerPrefetcher(maxStreams, degree int) *StreamerPrefetcher {
	return &StreamerPrefetcher{streams: make([]stream, max(maxStreams, 1)), out: make([]uint64, max(degree, 0))}
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
	i := 0
	for i < p.n && p.streams[i].page != page {
		i++
	}
	if i == p.n {
		if p.n == len(p.streams) {
			p.n, i = 0, 0 // drop the table, as the stride table does
		}
		p.streams[i] = stream{page, lineOff}
		p.n++
		return nil
	}
	last := p.streams[i].lastLine
	p.streams[i].lastLine = lineOff
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

// Reset empties the stream table, returning the streamer to its
// just-constructed state.
func (p *StreamerPrefetcher) Reset() {
	p.n = 0
}
