package radio

// Index tests on a scripted world: static and mobile radios across three
// channels exchanging broadcasts and unicasts under loss, with retunes,
// all under the index audit (audit_test.go), which checks every
// transmission's candidate sets against brute-force scans.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// logRx records every delivery with its virtual time.
type logRx struct {
	k   *sim.Kernel
	id  int
	log *[]string
}

func (l *logRx) RadioReceive(f *wifi.Frame) {
	*l.log = append(*l.log, fmt.Sprintf("%v rx=%d type=%v sa=%v da=%v", l.k.Now(), l.id, f.Type, f.SA, f.DA))
}

// buildScriptedWorld populates a medium with a deterministic mix of
// static and mobile radios and returns them with the shared delivery log.
func buildScriptedWorld() (*sim.Kernel, *Medium, []*Radio, *[]string) {
	cfg := Defaults()
	cfg.Loss = 0.15 // exercise the loss RNG so draw order matters
	k := sim.NewKernel(11)
	m := NewMedium(k, cfg)
	log := &[]string{}
	var radios []*Radio
	rng := rand.New(rand.NewSource(99)) // placement only
	for i := 0; i < 40; i++ {
		addr := wifi.NewAddr(2, uint32(i))
		rx := &logRx{k: k, id: i, log: log}
		var r *Radio
		if i%3 == 0 {
			// Mobile: drifts east at 5 m/s from a scattered origin.
			ox, oy := rng.Float64()*800, rng.Float64()*800
			r = m.NewRadio(addr, func() geo.Point {
				return geo.Point{X: ox + 5*k.Now().Seconds(), Y: oy}
			}, rx)
		} else {
			r = m.NewStaticRadio(addr, geo.Point{X: rng.Float64() * 800, Y: rng.Float64() * 800}, rx)
		}
		r.SetChannel([]int{1, 6, 11}[i%3])
		radios = append(radios, r)
	}
	return k, m, radios, log
}

// TestIndexedMediumMatchesLinearScan runs the scripted world under the
// index audit, whose oracle is a linear scan over every registered radio.
func TestIndexedMediumMatchesLinearScan(t *testing.T) {
	k, m, radios, log := buildScriptedWorld()
	a := installIndexAudit(t, m)
	runTraffic(k, radios, 10*time.Second, 7, []int{1, 6, 11})
	a.requireAudited(500)
	if len(*log) == 0 {
		t.Fatal("script delivered nothing; test is vacuous")
	}
	if st := m.Stats(); st.MissedAway == 0 || st.OutOfRange == 0 || st.LostRandom == 0 {
		t.Fatalf("script left a delivery path unexercised: %+v", st)
	}
}

// TestIndexedChannelBusyMatchesLinear samples ChannelBusyUntil between
// transmissions — the audit samples it only as one leaves — and compares
// each sample with a linear scan.
func TestIndexedChannelBusyMatchesLinear(t *testing.T) {
	k, m, radios, _ := buildScriptedWorld()
	samples, busy := 0, 0
	for _, at := range []time.Duration{time.Second, 3 * time.Second, 7 * time.Second} {
		k.At(at, func() {
			for _, ch := range []int{1, 6, 11} {
				got, want := m.ChannelBusyUntil(ch), bruteBusyUntil(m, ch)
				if got != want {
					t.Fatalf("t=%v: ChannelBusyUntil(%d) = %v, linear scan %v", k.Now(), ch, got, want)
				}
				samples++
				if got > 0 {
					busy++
				}
			}
		})
	}
	runTraffic(k, radios, 10*time.Second, 7, []int{1, 6, 11})
	if samples != 9 || busy == 0 {
		t.Fatalf("took %d samples, %d on a channel ever busy; want 9 and some", samples, busy)
	}
}

// TestIndexTracksRetunes verifies the registry moves a static radio
// between per-channel structures on SetChannel/Retune, and that a radio
// tuned away is no longer a delivery candidate.
func TestIndexTracksRetunes(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := Config{Range: 100, Loss: 0, EdgeStart: 1, DataRetryLimit: 0}
	m := NewMedium(k, cfg)
	var got []*wifi.Frame
	a := m.NewStaticRadio(wifi.NewAddr(3, 1), geo.Point{}, ReceiverFunc(func(f *wifi.Frame) {}))
	b := m.NewStaticRadio(wifi.NewAddr(3, 2), geo.Point{X: 50}, ReceiverFunc(func(f *wifi.Frame) {
		got = append(got, f)
	}))
	a.SetChannel(6)
	b.SetChannel(6)
	send := func() {
		a.Send(&wifi.Frame{Type: wifi.TypeData, SA: a.Addr(), DA: b.Addr(),
			Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100}})
	}
	send()
	k.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("on-channel delivery failed: %d frames", len(got))
	}
	b.SetChannel(11)
	send()
	k.Run(2 * time.Second)
	if len(got) != 1 {
		t.Fatal("off-channel radio still received after retune")
	}
	if m.Stats().MissedAway == 0 {
		t.Fatal("MissedAway not counted through the byAddr union")
	}
	b.SetChannel(6)
	send()
	k.Run(3 * time.Second)
	if len(got) != 2 {
		t.Fatal("radio not re-indexed after retuning back")
	}
}

// BenchmarkMediumBroadcast measures one broadcast into a dense static
// deployment — the medium's hot path. APs cover a 3×3 km grid; only the
// handful in range should pay per-frame work.
func BenchmarkMediumBroadcast(b *testing.B) {
	cfg := Defaults()
	cfg.Loss = 0
	cfg.EdgeStart = 1
	k := sim.NewKernel(1)
	m := NewMedium(k, cfg)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		r := m.NewStaticRadio(wifi.NewAddr(4, uint32(i)),
			geo.Point{X: rng.Float64() * 3000, Y: rng.Float64() * 3000},
			ReceiverFunc(func(*wifi.Frame) {}))
		r.SetChannel([]int{1, 6, 11}[i%3])
	}
	tx := m.NewStaticRadio(wifi.NewAddr(5, 1), geo.Point{X: 1500, Y: 1500},
		ReceiverFunc(func(*wifi.Frame) {}))
	tx.SetChannel(6)
	f := &wifi.Frame{Type: wifi.TypeBeacon, SA: tx.Addr(), DA: wifi.Broadcast,
		Body: &wifi.BeaconBody{Channel: 6}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Send(f)
		k.Run(k.Now() + 10*time.Millisecond)
	}
}
