package wifi

// Pool recycles the frame and body allocations that dominate the
// medium's hot path: beacons (one per AP per 100 ms), data frames and
// their TCP/DHCP payload bodies, and probe requests. The event kernel
// went allocation-free in an earlier pass; the pool does the same for
// the per-frame traffic above it.
//
// Ownership rules (see DESIGN.md §12):
//
//   - A pool belongs to one Medium and is only touched from that
//     medium's kernel goroutine. No locking, by construction.
//   - Objects handed out by the pool are marked pool-owned. Recycle is
//     a no-op on anything else, so pooled and unpooled frames mix
//     freely in the same medium.
//   - The single recycle point is the medium's transmit-completion
//     path: once a frame has been delivered (or dropped by a retune
//     flush) and every receiver has returned, the radio recycles it.
//     Receivers must therefore copy anything they keep — every decoder
//     in the tree (tcpsim.FromFrame, dhcp.DecodeMessage, the AP table's
//     observe) already copies by value.
//   - Frames that die before reaching the air (PSM buffer trims,
//     transmit-queue purges on teardown) are simply dropped on the
//     floor; the GC reclaims them. Leaking out of the pool is always
//     safe, recycling twice never happens (the pooled mark is cleared
//     on recycle).
//
// Recycle resets every object to its zero value on the spot (a data
// body keeps only its Header capacity), so a recycled object reads as
// empty from the moment it is returned. Any code that still reads a
// frame after its recycle point therefore sees zeros rather than the
// old contents, which changes the simulation and shows up as a golden
// archive diff; the reuse path hands out objects that equal fresh ones.
type Pool struct {
	frames  []*Frame
	beacons []*BeaconBody
	datas   []*DataBody
	probes  []*ProbeReqBody

	// Miss arenas: free-list misses carve from these slabs so growing a
	// pool to its working set costs one allocation per slab, not one per
	// object — the same trick the event kernel's arena uses.
	frameSlab  []Frame
	beaconSlab []BeaconBody
	dataSlab   []DataBody
	probeSlab  []ProbeReqBody

	// Fresh counts allocations that missed the free list; Recycled
	// counts frames returned. Benchmark/test instrumentation only.
	Fresh, Recycled uint64
}

// poolSlab is the arena granule. Frames and bodies are small (≤ ~100
// bytes), so a granule stays a few KB.
const poolSlab = 64

// Frame returns a zeroed pool-owned frame.
func (p *Pool) Frame() *Frame {
	if n := len(p.frames); n > 0 {
		f := p.frames[n-1]
		p.frames = p.frames[:n-1]
		f.pooled = true
		return f
	}
	p.Fresh++
	if len(p.frameSlab) == 0 {
		p.frameSlab = make([]Frame, poolSlab)
	}
	f := &p.frameSlab[0]
	p.frameSlab = p.frameSlab[1:]
	f.pooled = true
	return f
}

// Beacon returns a zeroed pool-owned beacon body.
func (p *Pool) Beacon() *BeaconBody {
	if n := len(p.beacons); n > 0 {
		b := p.beacons[n-1]
		p.beacons = p.beacons[:n-1]
		b.pooled = true
		return b
	}
	p.Fresh++
	if len(p.beaconSlab) == 0 {
		p.beaconSlab = make([]BeaconBody, poolSlab)
	}
	b := &p.beaconSlab[0]
	p.beaconSlab = p.beaconSlab[1:]
	b.pooled = true
	return b
}

// Data returns a pool-owned data body with a zero-length Header that
// keeps its previous capacity — append the payload header into it.
func (p *Pool) Data() *DataBody {
	if n := len(p.datas); n > 0 {
		d := p.datas[n-1]
		p.datas = p.datas[:n-1]
		d.pooled = true
		return d
	}
	p.Fresh++
	if len(p.dataSlab) == 0 {
		p.dataSlab = make([]DataBody, poolSlab)
	}
	d := &p.dataSlab[0]
	p.dataSlab = p.dataSlab[1:]
	d.pooled = true
	return d
}

// Probe returns a zeroed pool-owned probe-request body.
func (p *Pool) Probe() *ProbeReqBody {
	if n := len(p.probes); n > 0 {
		b := p.probes[n-1]
		p.probes = p.probes[:n-1]
		b.pooled = true
		return b
	}
	p.Fresh++
	if len(p.probeSlab) == 0 {
		p.probeSlab = make([]ProbeReqBody, poolSlab)
	}
	b := &p.probeSlab[0]
	p.probeSlab = p.probeSlab[1:]
	b.pooled = true
	return b
}

// Recycle zeroes a pool-owned frame (and its pool-owned body, if any)
// and returns them to the free lists. Frames the pool does not own pass
// through untouched, as do nil frames, so callers never need to check
// provenance. The caller must not use f or its body afterwards.
func (p *Pool) Recycle(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	switch b := f.Body.(type) {
	case *BeaconBody:
		if b.pooled {
			*b = BeaconBody{}
			p.beacons = append(p.beacons, b)
		}
	case *DataBody:
		if b.pooled {
			*b = DataBody{Header: b.Header[:0]}
			p.datas = append(p.datas, b)
		}
	case *ProbeReqBody:
		if b.pooled {
			*b = ProbeReqBody{}
			p.probes = append(p.probes, b)
		}
	}
	*f = Frame{}
	p.frames = append(p.frames, f)
	p.Recycled++
}
