package radio

import (
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// Regression tests for grid-edge membership: a radio sitting exactly on
// a cell boundary (x == cellSize·k) must be found by queries issued from
// either adjacent cell, and a radio at the world origin or edge must not
// fall out of the index. math.Floor puts x == cellSize·k in the higher
// cell; the query rectangle [p-rad, p+rad] from the lower cell reaches
// across, so both sides must see it — pinned here directly and by the
// index audit's brute-force scan, which has no cells to get wrong.

// buildBoundaryWorld places a receiver exactly on the x = cellSize cell
// boundary and two senders within Range on either side of it.
func buildBoundaryWorld() (*sim.Kernel, *Medium, [2]*Radio, *[]string) {
	cfg := Defaults()
	cfg.Loss = 0 // delivery must be deterministic: membership only
	cfg.EdgeStart = 1
	k := sim.NewKernel(5)
	m := NewMedium(k, cfg)
	cell := m.cfg.CSRange // == cellSize (max of CSRange, Range)
	log := &[]string{}
	rx := &logRx{k: k, id: 0, log: log}
	recv := m.NewStaticRadio(wifi.NewAddr(6, 0), geo.Point{X: cell, Y: cell}, rx)
	recv.SetChannel(6)
	var senders [2]*Radio
	for i, x := range []float64{cell - 80, cell + 80} { // lower cell, higher cell
		s := m.NewStaticRadio(wifi.NewAddr(6, uint32(i+1)), geo.Point{X: x, Y: cell},
			ReceiverFunc(func(*wifi.Frame) {}))
		s.SetChannel(6)
		senders[i] = s
	}
	return k, m, senders, log
}

// TestBoundaryRadioSeenFromBothAdjacentCells sends a beacon and a unicast
// from each side of the boundary: "indexed" checks what the medium
// delivers, "linear" runs the same sends under the index audit, whose
// linear scan has no cells to get wrong.
func TestBoundaryRadioSeenFromBothAdjacentCells(t *testing.T) {
	for _, mode := range []struct {
		name  string
		audit bool
	}{{"indexed", false}, {"linear", true}} {
		t.Run(mode.name, func(t *testing.T) {
			k, m, senders, log := buildBoundaryWorld()
			var a *indexAudit
			if mode.audit {
				a = installIndexAudit(t, m)
			}
			for i, s := range senders {
				s.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: s.Addr(), DA: wifi.Broadcast,
					Body: &wifi.BeaconBody{Channel: 6}})
				s.Send(&wifi.Frame{Type: wifi.TypeData, SA: s.Addr(), DA: wifi.NewAddr(6, 0),
					Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100}})
				k.Run(time.Duration(i+1) * time.Second)
			}
			if a != nil {
				a.requireAudited(4)
			}
			if got := len(*log); got != 4 {
				t.Fatalf("boundary radio received %d of 4 frames: %v", got, *log)
			}
			st := m.Stats()
			if st.OutOfRange != 0 || st.MissedAway != 0 {
				t.Fatalf("membership misses counted: %+v", st)
			}
		})
	}
}

// TestBoundaryDeliveryMatchesLinear runs the boundary world's senders,
// and the receiver itself, under the index audit's linear scan.
func TestBoundaryDeliveryMatchesLinear(t *testing.T) {
	k, m, senders, log := buildBoundaryWorld()
	a := installIndexAudit(t, m)
	recv := m.radios[0]
	for i, s := range []*Radio{senders[0], recv, senders[1]} {
		s.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: s.Addr(), DA: wifi.Broadcast,
			Body: &wifi.BeaconBody{Channel: 6}})
		k.Run(time.Duration(i+1) * time.Second)
	}
	a.requireAudited(3)
	if len(*log) != 2 {
		t.Fatalf("boundary radio received %d of 2 beacons: %v", len(*log), *log)
	}
}

// TestWorldOriginAndEdgeMembership pins that radios at the extreme
// corners of a world — (0,0) and just inside the far edge — are indexed
// and reachable; cellOf must handle coordinate 0 and near-edge floats
// without placing a radio in a cell no query visits.
func TestWorldOriginAndEdgeMembership(t *testing.T) {
	cfg := Defaults()
	cfg.Loss = 0
	cfg.EdgeStart = 1
	k := sim.NewKernel(9)
	m := NewMedium(k, cfg)
	log := &[]string{}
	const world = 1000.0
	corners := []geo.Point{{X: 0, Y: 0}, {X: world - 1e-9, Y: world - 1e-9}}
	for i, p := range corners {
		r := m.NewStaticRadio(wifi.NewAddr(7, uint32(i)), p, &logRx{k: k, id: i, log: log})
		r.SetChannel(1)
		s := m.NewStaticRadio(wifi.NewAddr(7, uint32(10+i)), geo.Point{X: p.X, Y: p.Y}.Add(geo.Point{X: 10}),
			ReceiverFunc(func(*wifi.Frame) {}))
		s.SetChannel(1)
		s.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: s.Addr(), DA: wifi.Broadcast,
			Body: &wifi.BeaconBody{Channel: 1}})
	}
	k.Run(time.Second)
	if len(*log) != 2 {
		t.Fatalf("corner radios received %d of 2 frames: %v", len(*log), *log)
	}
}

// TestQueryBoundsCache exercises the sender bounds cache directly: a
// repeat query from the same position must be served from the cache, a
// different radius kind must not collide with it, and any movement must
// invalidate both kinds.
func TestQueryBoundsCache(t *testing.T) {
	cfg := Defaults().withDefaults()
	ix := newMediumIndex(cfg)
	r := &Radio{}
	p := geo.Point{X: 512.3, Y: 187.9}
	csLo, csHi := ix.boundsFor(r, p, cfg.CSRange, qbCS)
	if wantLo, wantHi := ix.queryBounds(p, cfg.CSRange); csLo != wantLo || csHi != wantHi {
		t.Fatalf("first CS bounds wrong: got %v-%v want %v-%v", csLo, csHi, wantLo, wantHi)
	}
	if r.qbValid != 1<<qbCS {
		t.Fatalf("CS bit not cached: valid=%b", r.qbValid)
	}
	// The delivery radius differs, so its bounds must be computed anew,
	// keeping the CS entry.
	dlLo, dlHi := ix.boundsFor(r, p, cfg.Range, qbDelivery)
	if wantLo, wantHi := ix.queryBounds(p, cfg.Range); dlLo != wantLo || dlHi != wantHi {
		t.Fatalf("delivery bounds wrong: got %v-%v want %v-%v", dlLo, dlHi, wantLo, wantHi)
	}
	if r.qbValid != 1<<qbCS|1<<qbDelivery {
		t.Fatalf("both kinds not cached: valid=%b", r.qbValid)
	}
	// A cached repeat must return identical bounds.
	if lo, hi := ix.boundsFor(r, p, cfg.CSRange, qbCS); lo != csLo || hi != csHi {
		t.Fatalf("cached CS bounds differ: %v-%v vs %v-%v", lo, hi, csLo, csHi)
	}
	// Movement — even sub-cell — invalidates every cached kind.
	q := geo.Point{X: p.X + 0.5, Y: p.Y}
	mvLo, mvHi := ix.boundsFor(r, q, cfg.CSRange, qbCS)
	if wantLo, wantHi := ix.queryBounds(q, cfg.CSRange); mvLo != wantLo || mvHi != wantHi {
		t.Fatalf("post-move CS bounds wrong: got %v-%v want %v-%v", mvLo, mvHi, wantLo, wantHi)
	}
	if r.qbValid != 1<<qbCS {
		t.Fatalf("move did not invalidate the delivery entry: valid=%b", r.qbValid)
	}
	if r.qbPos != q {
		t.Fatalf("cache position not updated: %v", r.qbPos)
	}
}

var sinkBounds cellKey

// BenchmarkSenderBoundsCache isolates the win from caching a stationary
// sender's query bounds: the cached path replaces four floor-divides and
// two cellOf calls per frame with one position compare.
func BenchmarkSenderBoundsCache(b *testing.B) {
	cfg := Defaults().withDefaults()
	ix := newMediumIndex(cfg)
	p := geo.Point{X: 1234.5, Y: 987.6}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo, hi := ix.queryBounds(p, cfg.CSRange)
			sinkBounds = lo
			sinkBounds = hi
		}
	})
	b.Run("cached", func(b *testing.B) {
		r := &Radio{}
		for i := 0; i < b.N; i++ {
			lo, hi := ix.boundsFor(r, p, cfg.CSRange, qbCS)
			sinkBounds = lo
			sinkBounds = hi
		}
	})
}
