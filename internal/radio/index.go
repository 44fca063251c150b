package radio

import (
	"math"
	"slices"
	"time"

	"spider/internal/geo"
)

// This file implements the medium's per-channel radio registries and the
// uniform spatial grid that turns the O(radios) carrier-sense and
// delivery scans into neighborhood queries.
//
// Determinism contract: the index is a pure *pre-filter*. Every radio a
// brute-force scan over all registered radios would touch (draw loss
// randomness for, count in a stat, or deliver to) must appear among the
// returned candidates, and delivery candidates are sorted back into
// registration order before use, so the medium's RNG consumes draws in
// registration order whatever the cells hold. The tests keep that
// brute-force scan as the oracle: an index audit (audit_test.go) checks
// the candidate sets against it at every transmission.
//
// Static radios (declared via NewStaticRadio — access points) live in the
// grid under their fixed position. Mobile radios are gridded too, but
// under a *drift-bounded* bin: a mobile's position is a function of time,
// so the cell it was binned in goes stale as it moves. Rather than
// observing every move (the medium only samples positions it is asked
// about — a silent client can drive into range without the medium ever
// evaluating it), each mobile declares an upper bound on its speed
// (Radio.SetMaxSpeed), and the index guarantees that no bin is ever older
// than cellSize/vmax: before any bin is consulted, every mobile on the
// channel is re-binned at its current position if the channel's sweep
// deadline has passed. A mobile can then have drifted at most one cell
// side from its binned position, so queries over the mobile grid pad
// their cell rectangle by one ring and remain supersets of the radios in
// range. The sweep is O(mobiles on channel) but runs once per sweep
// period of *virtual* time — during a join storm the medium answers
// thousands of queries per virtual millisecond against bins it almost
// never has to refresh, where the old design walked the full mobile list
// per query. Mobiles that never declare a speed bound stay in an
// always-scanned list, the original behavior.

// cellKey addresses one grid cell. Cell side length is the carrier-sense
// range (the largest query radius), so any circular query touches at most
// a 3×3 block of cells (4×4 straddling alignment), plus the one-ring pad
// for drift-bounded mobiles.
type cellKey struct{ cx, cy int32 }

// channelIndex is the registry of radios tuned to one channel.
type channelIndex struct {
	cells map[cellKey][]*Radio // static radios, registration-ordered per cell

	// Drift-bounded mobile grid: binned holds every speed-bounded mobile
	// in registration order; once the population crosses gridThreshold,
	// mcells carries the cell view of the same set, rebuilt wholesale
	// whenever the sweep deadline passes. Per-cell lists inherit
	// registration order from the rebuild's ordered walk. Below the
	// threshold the grid stays off (gridded false) and binned is simply
	// appended to every query: a handful of map probes per query costs
	// more than scanning a short list, and sharded tiles hold only a few
	// dozen mobiles each — the grid exists for the monolithic city,
	// where one medium carries the full client population.
	binned  []*Radio
	mcells  map[cellKey][]*Radio
	gridded bool
	sweepAt time.Duration // next mandatory re-bin (zero forces one)

	// unbinned holds mobiles with no declared speed bound; they are
	// appended to every query, like the pre-grid mobile list.
	unbinned []*Radio
}

// gridThreshold is the per-channel mobile population above which the
// drift-bounded grid switches on. Below it, appending the whole binned
// list beats probing a ring of grid cells. The switch is one-way: a
// population that shrinks again just makes the periodic sweeps cheap.
const gridThreshold = 32

// mediumIndex is the medium's full registry: one channelIndex per tuned
// channel (untuned radios, channel 0, hear nothing and are not indexed).
type mediumIndex struct {
	cellSize float64
	chans    map[int]*channelIndex

	// vmax is the largest declared mobile speed; sweepPeriod =
	// cellSize/vmax keeps every bin within one cell of the truth (zero
	// while only speed-0 mobiles are binned: their bins never stale).
	vmax        float64
	sweepPeriod time.Duration

	hits []*Radio // gather's scratch for sorting cell hits; safe to share
	// because ordered gathers never run reentrantly (each call returns
	// before any receiver upcall that could trigger another query, and
	// nested carrier-sense queries take the unordered path).
}

func newMediumIndex(cfg Config) *mediumIndex {
	size := cfg.CSRange
	if cfg.Range > size {
		size = cfg.Range
	}
	return &mediumIndex{cellSize: size, chans: make(map[int]*channelIndex)}
}

func (ix *mediumIndex) cellOf(p geo.Point) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / ix.cellSize)),
		cy: int32(math.Floor(p.Y / ix.cellSize)),
	}
}

// noteSpeed raises the fleet speed bound. A faster bound shortens the
// sweep period, and bins placed under the old period may already be
// staler than the new one allows — forcing an immediate sweep on every
// channel restores the invariant before the next query.
func (ix *mediumIndex) noteSpeed(v float64) {
	if v <= ix.vmax {
		return
	}
	ix.vmax = v
	ix.sweepPeriod = time.Duration(ix.cellSize / v * float64(time.Second))
	for _, ci := range ix.chans {
		ci.sweepAt = 0
	}
}

// insertOrdered adds r to a registration-ordered slice. Channel changes
// are rare (a handful per simulated second) and per-cell lists are small,
// so the O(n) shift is noise next to the per-frame scans it avoids.
func insertOrdered(s []*Radio, r *Radio) []*Radio {
	i, _ := slices.BinarySearchFunc(s, r, func(a, b *Radio) int { return int(a.regIdx - b.regIdx) })
	return slices.Insert(s, i, r)
}

func removeRadio(s []*Radio, r *Radio) []*Radio {
	i, ok := slices.BinarySearchFunc(s, r, func(a, b *Radio) int { return int(a.regIdx - b.regIdx) })
	if !ok {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// add registers r under channel ch (ch != 0).
func (ix *mediumIndex) add(r *Radio, ch int) {
	ci := ix.chans[ch]
	if ci == nil {
		ci = &channelIndex{
			cells:  make(map[cellKey][]*Radio),
			mcells: make(map[cellKey][]*Radio),
		}
		ix.chans[ch] = ci
	}
	switch {
	case r.static:
		key := ix.cellOf(r.staticPos)
		ci.cells[key] = insertOrdered(ci.cells[key], r)
	case r.maxSpeed >= 0:
		ci.binned = insertOrdered(ci.binned, r)
		if ci.gridded {
			r.binCell = ix.cellOf(r.pos())
			r.inMCells = true
			ci.mcells[r.binCell] = insertOrdered(ci.mcells[r.binCell], r)
		}
	default:
		ci.unbinned = insertOrdered(ci.unbinned, r)
	}
}

// remove unregisters r from channel ch.
func (ix *mediumIndex) remove(r *Radio, ch int) {
	ci := ix.chans[ch]
	if ci == nil {
		return
	}
	switch {
	case r.static:
		key := ix.cellOf(r.staticPos)
		if cell := removeRadio(ci.cells[key], r); len(cell) > 0 {
			ci.cells[key] = cell
		} else {
			delete(ci.cells, key)
		}
	case r.maxSpeed >= 0:
		ci.binned = removeRadio(ci.binned, r)
		if r.inMCells {
			r.inMCells = false
			if cell := removeRadio(ci.mcells[r.binCell], r); len(cell) > 0 {
				ci.mcells[r.binCell] = cell
			} else {
				delete(ci.mcells, r.binCell)
			}
		}
	default:
		ci.unbinned = removeRadio(ci.unbinned, r)
	}
}

// maybeSweep re-bins every speed-bounded mobile on ch if the channel's
// sweep deadline has passed, restoring the one-cell drift bound. Callers
// invoke it with the current virtual time before consulting bins. The
// re-bin samples positions through the same pure PositionAt(t) paths the
// delivery predicate uses, so when it runs has no observable effect —
// any sweep schedule satisfying the drift bound yields candidate
// supersets, and the exact predicates downstream decide delivery.
func (ix *mediumIndex) maybeSweep(ch int, now time.Duration) {
	ci := ix.chans[ch]
	if ci == nil || now < ci.sweepAt {
		return
	}
	if !ci.gridded {
		if len(ci.binned) < gridThreshold {
			return // stay listy; sweepAt stays 0, re-checked next query
		}
		ci.gridded = true
	}
	clear(ci.mcells)
	for _, r := range ci.binned {
		r.binCell = ix.cellOf(r.pos())
		r.inMCells = true
		ci.mcells[r.binCell] = append(ci.mcells[r.binCell], r)
	}
	if ix.sweepPeriod > 0 {
		ci.sweepAt = now + ix.sweepPeriod
	} else {
		// Only speed-0 mobiles are binned: their bins never go stale.
		ci.sweepAt = math.MaxInt64
	}
}

// queryBounds returns the inclusive cell range covering a circle of
// radius rad around p.
func (ix *mediumIndex) queryBounds(p geo.Point, rad float64) (lo, hi cellKey) {
	lo = ix.cellOf(geo.Point{X: p.X - rad, Y: p.Y - rad})
	hi = ix.cellOf(geo.Point{X: p.X + rad, Y: p.Y + rad})
	return lo, hi
}

// Query-bounds cache kinds: one slot per query radius a sender uses.
const (
	qbCS       = 0 // carrier-sense queries (radius CSRange)
	qbDelivery = 1 // delivery queries (radius Range)
)

// boundsFor returns the cell rectangle for a radius-rad query around p,
// serving it from r's cache when r last queried that kind from the same
// position. The cell hash (four floor-divides) is thus paid once per
// position, not once per frame: a station that transmits repeatedly from
// one spot — every AP, and any mobile between movement samples — reuses
// its bounds until it actually crosses into new coordinates. r may be
// nil (ghost frames), which always computes.
func (ix *mediumIndex) boundsFor(r *Radio, p geo.Point, rad float64, kind uint8) (lo, hi cellKey) {
	if r == nil {
		return ix.queryBounds(p, rad)
	}
	if r.qbPos == p {
		if r.qbValid&(1<<kind) != 0 {
			return r.qbLo[kind], r.qbHi[kind]
		}
	} else {
		r.qbPos = p
		r.qbValid = 0
	}
	lo, hi = ix.queryBounds(p, rad)
	r.qbLo[kind], r.qbHi[kind] = lo, hi
	r.qbValid |= 1 << kind
	return lo, hi
}

// gather appends every channel-ch radio registered in the [lo, hi] cell
// rectangle: static radios from the covering grid cells, speed-bounded
// mobiles from the covering mobile cells padded by one ring (a bin can
// trail its radio by at most one cell side — see maybeSweep), and all
// unbinned mobiles. With ordered set, the result is in registration
// order, the order the medium's loss RNG must consume draws in; carrier
// sense passes false (its busy-until update is a max, so order is
// invisible) and skips the sort. The result is a superset of the radios within the
// query radius; callers re-apply the exact distance predicate.
func (ix *mediumIndex) gather(ch int, lo, hi cellKey, ordered bool, out []*Radio) []*Radio {
	ci := ix.chans[ch]
	if ci == nil {
		return out
	}
	if !ordered {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for cx := lo.cx; cx <= hi.cx; cx++ {
				out = append(out, ci.cells[cellKey{cx, cy}]...)
			}
		}
		if ci.gridded {
			for cy := lo.cy - 1; cy <= hi.cy+1; cy++ {
				for cx := lo.cx - 1; cx <= hi.cx+1; cx++ {
					out = append(out, ci.mcells[cellKey{cx, cy}]...)
				}
			}
		} else {
			out = append(out, ci.binned...)
		}
		return append(out, ci.unbinned...)
	}
	// Collect static and mobile cell hits (sorted within a cell, not
	// across cells), restore global registration order, then merge with
	// the already-sorted unbinned list rather than sorting the union.
	st := ix.hits[:0]
	for cy := lo.cy; cy <= hi.cy; cy++ {
		for cx := lo.cx; cx <= hi.cx; cx++ {
			st = append(st, ci.cells[cellKey{cx, cy}]...)
		}
	}
	if ci.gridded {
		for cy := lo.cy - 1; cy <= hi.cy+1; cy++ {
			for cx := lo.cx - 1; cx <= hi.cx+1; cx++ {
				st = append(st, ci.mcells[cellKey{cx, cy}]...)
			}
		}
	} else {
		st = append(st, ci.binned...)
	}
	slices.SortFunc(st, func(a, b *Radio) int { return int(a.regIdx - b.regIdx) })
	ix.hits = st
	mob := ci.unbinned
	for len(st) > 0 && len(mob) > 0 {
		if st[0].regIdx < mob[0].regIdx {
			out = append(out, st[0])
			st = st[1:]
		} else {
			out = append(out, mob[0])
			mob = mob[1:]
		}
	}
	out = append(out, st...)
	out = append(out, mob...)
	return out
}

// covers reports whether a gather over the [lo, hi] rectangle on ch has
// returned r: unbinned mobiles on the channel always, statics when their
// cell lies in the query rectangle, binned mobiles when their bin lies in
// the one-ring-padded rectangle (the rectangle gather consulted).
// Callers use it to union in a unicast's addressed radio without
// duplicating it.
func (ix *mediumIndex) covers(r *Radio, ch int, lo, hi cellKey) bool {
	if r.channel != ch {
		return false
	}
	var c cellKey
	switch {
	case r.static:
		c = ix.cellOf(r.staticPos)
	case r.inMCells:
		c = r.binCell
		lo = cellKey{lo.cx - 1, lo.cy - 1}
		hi = cellKey{hi.cx + 1, hi.cy + 1}
	default:
		return true // whole-list mobiles are always gathered
	}
	return c.cx >= lo.cx && c.cx <= hi.cx && c.cy >= lo.cy && c.cy <= hi.cy
}
