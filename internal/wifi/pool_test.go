package wifi

import (
	"reflect"
	"testing"
)

// TestPoolRecycleZeroes pins the pool's use-after-recycle guard: a
// recycled frame and its body read as zero values from the moment they
// are returned (a data body keeps only its Header capacity), and the
// objects the pool hands out again equal freshly allocated ones.
func TestPoolRecycleZeroes(t *testing.T) {
	var p, fresh Pool
	cases := []struct {
		name string
		body func(p *Pool) Body
		fill func(b Body)
	}{
		{"beacon", func(p *Pool) Body { return p.Beacon() }, func(b Body) {
			*b.(*BeaconBody) = BeaconBody{SSID: "net", Channel: 6, Capabilities: 1, BackhaulKbps: 512, pooled: true}
		}},
		{"data", func(p *Pool) Body { return p.Data() }, func(b Body) {
			d := b.(*DataBody)
			d.Proto, d.VirtualLen = ProtoTCP, 1200
			d.Header = append(d.Header[:0], 1, 2, 3, 4, 5, 6, 7, 8)
		}},
		{"probe", func(p *Pool) Body { return p.Probe() }, func(b Body) {
			b.(*ProbeReqBody).SSID = "net"
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, b := p.Frame(), c.body(&p)
			*f = Frame{Type: TypeData, SA: NewAddr(1, 1), DA: NewAddr(1, 2), BSSID: NewAddr(1, 3),
				Seq: 9, PowerMgmt: true, Retry: true, Halo: true, Body: b, pooled: true}
			c.fill(b)
			p.Recycle(f)

			if *f != (Frame{}) {
				t.Fatalf("recycled frame reads %+v, want zero", *f)
			}
			if d, ok := b.(*DataBody); ok {
				if cap(d.Header) < 8 {
					t.Fatalf("recycled data body dropped its header capacity: cap %d", cap(d.Header))
				}
				if d.Header == nil || len(d.Header) != 0 {
					t.Fatalf("recycled data body header %v, want empty with capacity", d.Header)
				}
			}
			if got, zero := withoutHeader(b), reflect.New(reflect.TypeOf(b).Elem()).Interface(); !reflect.DeepEqual(got, zero) {
				t.Fatalf("recycled body reads %+v, want zero", got)
			}

			g, gb := p.Frame(), c.body(&p)
			if g != f || gb != b {
				t.Fatal("pool did not reuse the recycled objects")
			}
			if *g != *fresh.Frame() {
				t.Fatalf("reused frame %+v differs from a fresh one", *g)
			}
			if got, want := withoutHeader(gb), withoutHeader(c.body(&fresh)); !reflect.DeepEqual(got, want) {
				t.Fatalf("reused body %+v differs from a fresh one %+v", got, want)
			}
		})
	}
}

// withoutHeader copies a body with a data body's Header dropped, whose
// capacity is the one thing a reused body legitimately keeps.
func withoutHeader(b Body) any {
	if d, ok := b.(*DataBody); ok {
		c := *d
		c.Header = nil
		return &c
	}
	return b
}

// TestPoolRecycleIgnoresForeignFrames: frames the pool did not hand out
// pass through Recycle untouched and never enter the free lists.
func TestPoolRecycleIgnoresForeignFrames(t *testing.T) {
	var p Pool
	body := &BeaconBody{SSID: "x"}
	f := &Frame{Type: TypeBeacon, Body: body}
	p.Recycle(f)
	p.Recycle(nil)
	if f.Type != TypeBeacon || f.Body != Body(body) || body.SSID != "x" || p.Recycled != 0 || len(p.frames) != 0 {
		t.Fatalf("foreign frame recycled: %+v, recycled=%d", f, p.Recycled)
	}
}
