package radio

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// The spatial index is a pure pre-filter, so the medium needs no second
// production path to check it against: a brute-force scan over every
// registered radio, in registration order, is the oracle. indexAudit
// runs that scan at every transmission the medium completes and fails
// the test on the first disagreement.

// indexAudit compares the index's answers with brute-force scans.
type indexAudit struct {
	t       testing.TB
	m       *Medium
	n       int // transmissions audited
	gridded int // of which on a channel whose mobile grid was on
}

// installIndexAudit hooks the audit into m's transmit observer, keeping
// any observer already installed.
func installIndexAudit(t testing.TB, m *Medium) *indexAudit {
	a := &indexAudit{t: t, m: m}
	prev := m.txObs
	m.SetTxObserver(func(f *wifi.Frame, ch int, at time.Duration, txPos geo.Point) {
		a.check(f, ch, txPos)
		if prev != nil {
			prev(f, ch, at, txPos)
		}
	})
	return a
}

// check audits one frame on ch leaving a transmitter at txPos:
//
//   - the delivery candidates, filtered by the exact receive predicate
//     (tuned to ch, not mid-reset, within Range when the frame ends),
//     equal the brute-force set in registration order — the order the
//     loss RNG consumes draws in — and include a unicast's addressee;
//   - the carrier-sense candidates cover every radio on ch within
//     CSRange;
//   - ChannelBusyUntil equals the brute-force maximum over ch.
func (a *indexAudit) check(f *wifi.Frame, ch int, txPos geo.Point) {
	m := a.m
	now := m.kernel.Now()
	a.n++
	if ci := m.idx.chans[ch]; ci != nil && ci.gridded {
		a.gridded++
	}
	rng2, cs2 := m.cfg.Range*m.cfg.Range, m.cfg.CSRange*m.cfg.CSRange
	hears := func(r *Radio) bool {
		return r.channel == ch && !r.Suspended(now) && txPos.DistSq(r.pos()) <= rng2
	}

	var want, got []*Radio
	for _, r := range m.radios {
		if hears(r) {
			want = append(want, r)
		}
	}
	cands := m.deliveryCandidates(nil, f.DA, ch, txPos)
	for _, r := range cands {
		if hears(r) {
			got = append(got, r)
		}
	}
	if !slices.Equal(got, want) {
		a.t.Fatalf("t=%v ch=%d tx@%v: delivery candidates hear %v, brute force %v",
			now, ch, txPos, regIdxs(got), regIdxs(want))
	}
	if !f.DA.IsBroadcast() {
		if tgt := m.byAddr[f.DA]; tgt != nil && !slices.Contains(cands, tgt) {
			a.t.Fatalf("t=%v ch=%d: addressee %d missing from delivery candidates", now, ch, tgt.regIdx)
		}
	}

	cs := m.csCandidates(nil, ch, txPos)
	for _, r := range m.radios {
		if r.channel == ch && txPos.DistSq(r.pos()) <= cs2 && !slices.Contains(cs, r) {
			a.t.Fatalf("t=%v ch=%d tx@%v: radio %d at %v within CSRange missing from carrier-sense candidates",
				now, ch, txPos, r.regIdx, r.pos())
		}
	}
	if got, busy := m.ChannelBusyUntil(ch), bruteBusyUntil(m, ch); got != busy {
		a.t.Fatalf("t=%v: ChannelBusyUntil(%d) = %v, brute force %v", now, ch, got, busy)
	}
}

// bruteBusyUntil is ChannelBusyUntil by a linear scan over every
// registered radio.
func bruteBusyUntil(m *Medium, ch int) time.Duration {
	var busy time.Duration
	for _, r := range m.radios {
		if r.channel == ch {
			busy = max(busy, r.busyUntil)
		}
	}
	return busy
}

func regIdxs(rs []*Radio) []int32 {
	out := make([]int32, len(rs))
	for i, r := range rs {
		out[i] = r.regIdx
	}
	return out
}

// requireAudited fails unless the audit saw at least min transmissions.
func (a *indexAudit) requireAudited(min int) {
	a.t.Helper()
	if a.n < min {
		a.t.Fatalf("audited %d transmissions, want at least %d", a.n, min)
	}
}

// TestIndexAuditGriddedMobiles drives one channel's speed-bounded
// mobile population across gridThreshold, so the drift-bounded mobile
// grid switches on with the audit watching. Mobiles join by retune in
// waves, some leave and return, and a third of the way in the fleet's
// speed bound is raised (noteSpeed) just before the fast movers speed
// up, so bins placed under the old sweep period must be re-swept in
// time.
func TestIndexAuditGriddedMobiles(t *testing.T) {
	cfg := Defaults()
	cfg.Loss = 0.1
	k := sim.NewKernel(21)
	m := NewMedium(k, cfg)
	a := installIndexAudit(t, m)
	const (
		n      = 48
		slow   = 5.0  // m/s, the initial bound: one sweep per 40 s
		fast   = 60.0 // m/s after the raise: one sweep per 3.3 s
		raise  = 10 * time.Second
		span   = 1500.0
		finish = 30 * time.Second
	)
	var radios []*Radio
	for i := 0; i < 12; i++ { // statics sprinkled over the area
		r := m.NewStaticRadio(wifi.NewAddr(8, uint32(i)),
			geo.Point{X: float64(i%4) * 400, Y: float64(i/4) * 500}, ReceiverFunc(func(*wifi.Frame) {}))
		r.SetChannel(6)
		radios = append(radios, r)
	}
	// fold reflects a coordinate into [0, span] with slope ±1, so a
	// mobile bouncing off the area's edges keeps its speed.
	fold := func(v float64) float64 {
		u := math.Mod(v, 2*span)
		if u < 0 {
			u += 2 * span
		}
		return span - math.Abs(u-span)
	}
	for i := 0; i < n; i++ {
		// Each mobile drives heading i; every third one speeds up from
		// slow to fast at the raise.
		ox, oy := float64(i*97%1500), float64(i*211%1500)
		hx, hy := math.Cos(float64(i)), math.Sin(float64(i))
		speedsUp := i%3 == 0
		pos := func() geo.Point {
			d := slow * k.Now().Seconds()
			if speedsUp && k.Now() > raise {
				d = slow*raise.Seconds() + fast*(k.Now()-raise).Seconds()
			}
			return geo.Point{X: fold(ox + hx*d), Y: fold(oy + hy*d)}
		}
		r := m.NewRadio(wifi.NewAddr(9, uint32(i)), pos, ReceiverFunc(func(*wifi.Frame) {}))
		r.SetMaxSpeed(slow)
		if i < 20 {
			r.SetChannel(6) // below the threshold at first
		}
		radios = append(radios, r)
		if speedsUp {
			k.At(raise-time.Second, func() { r.SetMaxSpeed(fast) })
		}
		// The rest join in waves; every fifth later retunes away and back.
		if i >= 20 {
			k.At(time.Duration(i-19)*200*time.Millisecond, func() { r.Retune(6, 5*time.Millisecond, nil) })
		}
		if i%5 == 0 {
			k.At(time.Duration(10+i%7)*time.Second, func() { r.SetChannel(11) })
			k.At(time.Duration(13+i%7)*time.Second, func() { r.Retune(6, 5*time.Millisecond, nil) })
		}
	}
	runTraffic(k, radios, finish, 7, []int{6})
	a.requireAudited(1000)
	if a.gridded == 0 {
		t.Fatal("the mobile grid never switched on; the test is vacuous")
	}
	if m.idx.vmax != fast {
		t.Fatalf("fleet speed bound %v, want %v", m.idx.vmax, fast)
	}
}

// runTraffic drives scripted traffic until the horizon: every 1–20 ms a
// random radio broadcasts a beacon or unicasts to a random peer
// (off-channel and far-away ones included, so the missed-away and
// out-of-range paths run), first retuning to one of chans one time in
// five.
func runTraffic(k *sim.Kernel, radios []*Radio, until time.Duration, seed int64, chans []int) {
	rng := rand.New(rand.NewSource(seed))
	var step func()
	step = func() {
		src := radios[rng.Intn(len(radios))]
		if rng.Intn(5) == 0 {
			src.SetChannel(chans[rng.Intn(len(chans))])
		}
		if rng.Intn(3) == 0 {
			src.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: src.Addr(), DA: wifi.Broadcast,
				Body: &wifi.BeaconBody{Channel: uint8(src.Channel())}})
		} else if dst := radios[rng.Intn(len(radios))]; dst != src {
			src.Send(&wifi.Frame{Type: wifi.TypeData, SA: src.Addr(), DA: dst.Addr(),
				Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 200}})
		}
		if k.Now() < until {
			k.After(time.Duration(1+rng.Intn(20))*time.Millisecond, step)
		}
	}
	k.After(0, step)
	k.Run(until)
}
