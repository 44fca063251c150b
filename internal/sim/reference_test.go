package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The kernel's calendar front-end, staging lists, 4-ary heap and restore
// path are checked against refKernel: a naive scheduler that keeps its
// pending events in one flat list and pops the minimum (at, seq) by
// linear scan. It has no buckets, no heap and no slot reuse to get
// wrong, so agreement with it on fire order, clock, Len, NextAt, Fired,
// handle state and restore — across same-timestamp bursts, cancels,
// callbacks that schedule, cancel and stop, and rewinds — is the
// kernel's ordering contract.

// refKernel is the reference scheduler.
type refKernel struct {
	now     time.Duration
	nextSeq uint64
	fired   uint64
	stopped bool
	pending []*refEvent
}

// refEvent is a reference handle; live is true while it is pending.
type refEvent struct {
	k    *refKernel
	at   time.Duration
	seq  uint64
	fn   func()
	live bool
}

func (r *refKernel) At(t time.Duration, fn func()) timer {
	if t < r.now {
		panic("ref: scheduling into the past")
	}
	r.nextSeq++
	return r.add(t, r.nextSeq-1, fn)
}

func (r *refKernel) After(d time.Duration, fn func()) timer {
	return r.At(r.now+max(d, 0), fn)
}

func (r *refKernel) RestoreAt(at time.Duration, seq uint64, fn func()) timer {
	if at < r.now || seq >= r.nextSeq {
		panic("ref: bad restore")
	}
	return r.add(at, seq, fn)
}

func (r *refKernel) add(at time.Duration, seq uint64, fn func()) *refEvent {
	e := &refEvent{k: r, at: at, seq: seq, fn: fn, live: true}
	r.pending = append(r.pending, e)
	return e
}

// min returns the pending event with the smallest (at, seq), or nil.
func (r *refKernel) min() *refEvent {
	var best *refEvent
	for _, e := range r.pending {
		if best == nil || e.at < best.at || (e.at == best.at && e.seq < best.seq) {
			best = e
		}
	}
	return best
}

func (r *refKernel) remove(e *refEvent) {
	e.live = false
	r.pending = slices.DeleteFunc(r.pending, func(x *refEvent) bool { return x == e })
}

func (r *refKernel) Run(until time.Duration) time.Duration {
	r.stopped = false
	for !r.stopped {
		e := r.min()
		if e == nil || e.at > until {
			break
		}
		r.now = e.at
		r.remove(e)
		r.fired++
		e.fn()
	}
	if r.now < until && !r.stopped {
		r.now = until
	}
	return r.now
}

func (r *refKernel) RunAll() time.Duration {
	r.stopped = false
	for !r.stopped {
		e := r.min()
		if e == nil {
			break
		}
		r.now = e.at
		r.remove(e)
		r.fired++
		e.fn()
	}
	return r.now
}

func (r *refKernel) Stop()              { r.stopped = true }
func (r *refKernel) Len() int           { return len(r.pending) }
func (r *refKernel) Now() time.Duration { return r.now }
func (r *refKernel) Fired() uint64      { return r.fired }
func (r *refKernel) NextSeq() uint64    { return r.nextSeq }

func (r *refKernel) NextAt() (time.Duration, bool) {
	if e := r.min(); e != nil {
		return e.at, true
	}
	return 0, false
}

func (r *refKernel) BeginRestore(now time.Duration, nextSeq, fired uint64) {
	for _, e := range r.pending {
		e.live = false
	}
	r.pending = nil
	r.now, r.nextSeq, r.fired, r.stopped = now, nextSeq, fired, false
}

func (e *refEvent) Cancel() bool {
	if !e.live {
		return false
	}
	e.k.remove(e)
	return true
}

func (e *refEvent) Pending() bool { return e.live }

func (e *refEvent) State() (time.Duration, uint64, bool) {
	if !e.live {
		return 0, 0, false
	}
	return e.at, e.seq, true
}

// timer is the handle surface both schedulers share.
type timer interface {
	Cancel() bool
	Pending() bool
	State() (at time.Duration, seq uint64, ok bool)
}

// scheduler is the kernel surface under test.
type scheduler interface {
	At(t time.Duration, fn func()) timer
	After(d time.Duration, fn func()) timer
	RestoreAt(at time.Duration, seq uint64, fn func()) timer
	BeginRestore(now time.Duration, nextSeq, fired uint64)
	Run(until time.Duration) time.Duration
	RunAll() time.Duration
	Stop()
	NextAt() (time.Duration, bool)
	Len() int
	Now() time.Duration
	Fired() uint64
	NextSeq() uint64
}

// kernelSched adapts *Kernel to scheduler.
type kernelSched struct{ *Kernel }

func (k kernelSched) At(t time.Duration, fn func()) timer    { return k.Kernel.At(t, fn) }
func (k kernelSched) After(d time.Duration, fn func()) timer { return k.Kernel.After(d, fn) }
func (k kernelSched) RestoreAt(at time.Duration, seq uint64, fn func()) timer {
	return k.Kernel.RestoreAt(at, seq, fn)
}

// side is one scheduler under a scripted workload. Event ids index
// timers; both sides allocate them in the same order, so an id names
// the same event on each.
type side struct {
	s      scheduler
	react  bool // callbacks schedule, cancel and stop (see fire)
	timers []timer
	log    []string
}

func (sd *side) logf(format string, args ...any) {
	sd.log = append(sd.log, fmt.Sprintf(format, args...))
}

// childDelays are the horizons a callback schedules at: same instant,
// sub-bucket, in-window, just past the window, far future.
var childDelays = []time.Duration{0, bucketW / 3, bucketSpan / 2, bucketSpan + bucketW, 3 * time.Second}

// fire is event id's callback. With react set, some ids schedule a
// child, cancel another event, or stop the run — the same ids on both
// sides, so the sides stay comparable.
func (sd *side) fire(id int) func() {
	return func() {
		sd.logf("fire %d @%v pending=%v", id, sd.s.Now(), sd.timers[id].Pending())
		if !sd.react {
			return
		}
		switch {
		case id%7 == 3:
			sd.schedule(childDelays[(id/7)%len(childDelays)])
		case id%11 == 5:
			j := (id * 31) % len(sd.timers)
			sd.logf("cancel %d=%v", j, sd.timers[j].Cancel())
		case id%97 == 41:
			sd.s.Stop()
		}
	}
}

// schedule adds an event d from now: via At for even ids, After for odd
// ids and for negative d (which After clamps to now).
func (sd *side) schedule(d time.Duration) {
	id := len(sd.timers)
	sd.timers = append(sd.timers, nil)
	if id%2 == 0 && d >= 0 {
		sd.timers[id] = sd.s.At(sd.s.Now()+d, sd.fire(id))
	} else {
		sd.timers[id] = sd.s.After(d, sd.fire(id))
	}
}

// tick schedules a recurring timer that fires n times, period apart.
func (sd *side) tick(period time.Duration, n int) {
	var fn func()
	fn = func() {
		sd.logf("tick %v @%v", period, sd.s.Now())
		if n--; n > 0 {
			sd.s.After(period, fn)
		}
	}
	sd.s.After(period, fn)
}

// snapshot is a checkpoint of a side: the kernel counters plus the
// recorded identity of every pending tracked event.
type snapshot struct {
	now            time.Duration
	nextSeq, fired uint64
	ids            []int
	ats            []time.Duration
	seqs           []uint64
}

func (sd *side) capture() snapshot {
	sn := snapshot{now: sd.s.Now(), nextSeq: sd.s.NextSeq(), fired: sd.s.Fired()}
	for id, tm := range sd.timers {
		if at, seq, ok := tm.State(); ok {
			sn.ids = append(sn.ids, id)
			sn.ats = append(sn.ats, at)
			sn.seqs = append(sn.seqs, seq)
		}
	}
	return sn
}

// restore rewinds the side to sn, re-arming in reverse capture order:
// the (at, seq) keys alone must decide order, not insertion.
func (sd *side) restore(sn snapshot) {
	sd.s.BeginRestore(sn.now, sn.nextSeq, sn.fired)
	for i := len(sn.ids) - 1; i >= 0; i-- {
		id := sn.ids[i]
		sd.timers[id] = sd.s.RestoreAt(sn.ats[i], sn.seqs[i], sd.fire(id))
	}
	sd.logf("restore @%v", sn.now)
}

// model drives a kernel side and a reference side through the same
// operations and compares them.
type model struct {
	t       testing.TB
	k, r    *side
	snaps   [2]*snapshot
	checked int // log entries already compared
}

func newModel(t testing.TB, react bool) *model {
	return &model{
		t: t,
		k: &side{s: kernelSched{NewKernel(1)}, react: react},
		r: &side{s: &refKernel{}, react: react},
	}
}

func (m *model) each(op func(sd *side)) {
	op(m.k)
	op(m.r)
}

func (m *model) schedule(d time.Duration) { m.each(func(sd *side) { sd.schedule(d) }) }

func (m *model) cancel(i int) {
	m.each(func(sd *side) {
		if n := len(sd.timers); n > 0 {
			sd.logf("cancel %d=%v", i%n, sd.timers[i%n].Cancel())
		}
	})
}

func (m *model) pending(i int) {
	m.each(func(sd *side) {
		if n := len(sd.timers); n > 0 {
			sd.logf("pending %d=%v", i%n, sd.timers[i%n].Pending())
		}
	})
}

func (m *model) run(until time.Duration) {
	m.each(func(sd *side) { sd.logf("run(%v)=%v", until, sd.s.Run(until)) })
	m.check(true)
}

func (m *model) runAll() {
	m.each(func(sd *side) { sd.logf("runAll=%v", sd.s.RunAll()) })
	m.check(true)
}

// checkpoint records both sides, which must agree on what they record.
func (m *model) checkpoint() {
	ks, rs := m.k.capture(), m.r.capture()
	if fmt.Sprint(ks) != fmt.Sprint(rs) {
		m.t.Fatalf("snapshots differ:\n  kernel:    %v\n  reference: %v", ks, rs)
	}
	m.snaps = [2]*snapshot{&ks, &rs}
}

// rewind restores both sides to the last checkpoint, if any.
func (m *model) rewind() {
	if m.snaps[0] == nil {
		return
	}
	m.k.restore(*m.snaps[0])
	m.r.restore(*m.snaps[1])
	m.check(true)
}

// check compares the logs so far, the counters, and — when full — the
// state of every handle either side ever issued.
func (m *model) check(full bool) {
	k, r := m.k, m.r
	for i := m.checked; i < len(k.log) || i < len(r.log); i++ {
		var kl, rl string
		if i < len(k.log) {
			kl = k.log[i]
		}
		if i < len(r.log) {
			rl = r.log[i]
		}
		if kl != rl {
			m.t.Fatalf("logs diverge at %d:\n  kernel:    %q\n  reference: %q", i, kl, rl)
		}
	}
	m.checked = len(k.log)
	if a, b := k.s.Now(), r.s.Now(); a != b {
		m.t.Fatalf("Now: kernel %v, reference %v", a, b)
	}
	if a, b := k.s.Len(), r.s.Len(); a != b {
		m.t.Fatalf("Len: kernel %d, reference %d", a, b)
	}
	ka, kok := k.s.NextAt()
	ra, rok := r.s.NextAt()
	if ka != ra || kok != rok {
		m.t.Fatalf("NextAt: kernel (%v,%v), reference (%v,%v)", ka, kok, ra, rok)
	}
	if a, b := k.s.Fired(), r.s.Fired(); a != b {
		m.t.Fatalf("Fired: kernel %d, reference %d", a, b)
	}
	if a, b := k.s.NextSeq(), r.s.NextSeq(); a != b {
		m.t.Fatalf("NextSeq: kernel %d, reference %d", a, b)
	}
	if !full {
		return
	}
	if len(k.timers) != len(r.timers) {
		m.t.Fatalf("handles: kernel %d, reference %d", len(k.timers), len(r.timers))
	}
	for i := range k.timers {
		ka, ks, kok := k.timers[i].State()
		ra, rs, rok := r.timers[i].State()
		if ka != ra || ks != rs || kok != rok || k.timers[i].Pending() != r.timers[i].Pending() {
			m.t.Fatalf("handle %d: kernel (%v,%d,%v), reference (%v,%d,%v)", i, ka, ks, kok, ra, rs, rok)
		}
	}
}

func TestKernelMatchesReferenceSameTimestampBurst(t *testing.T) {
	// The join-storm shape: thousands of events at the exact same
	// timestamp, where order is decided purely by insertion sequence.
	m := newModel(t, false)
	for i := 0; i < 5000; i++ {
		m.schedule(0)
	}
	for i := 0; i < 500; i++ {
		m.cancel(i * 7)
	}
	m.check(true)
	m.run(0)
	if got := m.k.s.Fired(); got != 4500 {
		t.Fatalf("fired %d, want 4500", got)
	}
}

func TestKernelMatchesReferenceRandomSchedules(t *testing.T) {
	// Randomized property test: mixed horizons (sub-bucket, in-window,
	// far-future), cancels, recurring timers that land across bucket
	// boundaries like beacons and dwell slices do, callbacks that
	// schedule, cancel and stop, and checkpoint rewinds.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModel(t, true)
		for i := 0; i < 20; i++ {
			period := time.Duration(1+rng.Intn(400)) * time.Millisecond
			m.each(func(sd *side) { sd.tick(period, 50) })
		}
		horizon := time.Duration(0)
		for step := 0; step < 40; step++ {
			for i := 0; i < 200; i++ {
				switch rng.Intn(12) {
				case 0: // same-instant burst
					m.schedule(0)
				case 1, 2: // sub-bucket jitter
					m.schedule(time.Duration(rng.Intn(int(bucketW))))
				case 3, 4, 5: // in-window
					m.schedule(time.Duration(rng.Intn(int(bucketSpan))))
				case 6: // beyond the window
					m.schedule(bucketSpan + time.Duration(rng.Intn(int(bucketSpan))))
				case 7: // far future, heap-resident for many windows
					m.schedule(time.Duration(rng.Intn(5)) * time.Second)
				case 8: // negative delay clamps to now
					m.schedule(-time.Duration(rng.Intn(int(bucketW))))
				case 9:
					m.cancel(rng.Intn(1 << 16))
				case 10:
					m.pending(rng.Intn(1 << 16))
				case 11:
					m.check(false)
				}
			}
			switch step % 10 {
			case 3:
				m.checkpoint()
			case 7:
				m.rewind()
			}
			horizon = max(horizon, m.k.s.Now()) + time.Duration(rng.Intn(int(200*time.Millisecond)))
			m.run(horizon)
		}
		m.runAll()
		m.runAll() // resumes past any Stop
	}
}

func TestCalendarRestore(t *testing.T) {
	// BeginRestore must drain staged buckets and the run, and RestoreAt
	// must re-arm through the calendar path with recorded (at, seq)
	// identity intact.
	k := NewKernel(1)
	var fired []int
	k.After(time.Millisecond, func() { fired = append(fired, 0) })
	e1 := k.After(5*time.Millisecond, func() { fired = append(fired, 1) })
	e2 := k.After(500*time.Millisecond, func() { fired = append(fired, 2) }) // far heap
	k.Run(time.Millisecond)
	at1, seq1, _ := e1.State()
	at2, seq2, _ := e2.State()
	nextSeq, firedN := k.NextSeq(), k.Fired()

	k.BeginRestore(k.Now(), nextSeq, firedN)
	if k.Len() != 0 {
		t.Fatalf("Len after BeginRestore = %d", k.Len())
	}
	if e1.Pending() || e2.Pending() {
		t.Fatalf("handles still pending after BeginRestore")
	}
	k.RestoreAt(at2, seq2, func() { fired = append(fired, 2) })
	k.RestoreAt(at1, seq1, func() { fired = append(fired, 1) })
	k.RunAll()
	want := []int{0, 1, 2}
	if len(fired) != 3 || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// FuzzKernelOrdering feeds adversarial operation tapes to the kernel
// and the reference scheduler: every byte pair is an op (schedule with
// some delta — zero deltas build same-timestamp bursts — cancel, query,
// advance, drain, checkpoint or rewind), callbacks react, and the two
// must agree throughout. Corpus seeds cover the storm shape.
func FuzzKernelOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 255})        // t=0 burst then drain
	f.Add([]byte{1, 10, 1, 10, 8, 1, 1, 10, 9, 200})     // jitter + cancel
	f.Add([]byte{3, 200, 3, 200, 9, 50, 3, 200, 9, 255}) // cross-window
	f.Add([]byte{3, 9, 12, 0, 6, 4, 9, 90, 13, 0, 0, 0, 14, 0, 11, 7})
	f.Fuzz(func(t *testing.T, tape []byte) {
		m := newModel(t, true)
		for i := 0; i+1 < len(tape) && i < 4096; i += 2 {
			op, arg := tape[i], tape[i+1]
			switch op % 15 {
			case 0: // same-instant burst member
				m.schedule(0)
			case 1, 2: // sub-bucket
				m.schedule(time.Duration(arg) * (bucketW / 256))
			case 3, 4: // in-window
				m.schedule(time.Duration(arg) * (bucketSpan / 256))
			case 5: // window boundary neighborhood
				m.schedule(bucketSpan - bucketW + time.Duration(arg)*(bucketW/64))
			case 6: // far future
				m.schedule(bucketSpan + time.Duration(arg)*time.Millisecond)
			case 7, 8:
				m.cancel(int(arg))
			case 9:
				m.run(m.k.s.Now() + time.Duration(arg)*time.Millisecond)
			case 10:
				m.pending(int(arg))
			case 11: // negative delay clamps to now
				m.schedule(-time.Duration(arg) * time.Microsecond)
			case 12:
				m.checkpoint()
			case 13:
				m.rewind()
			case 14:
				m.runAll()
			}
		}
		m.run(m.k.s.Now() + time.Second)
		m.runAll()
	})
}

// BenchmarkKernelBurst is the scheduler-only view of the join storm:
// 100k events across the first millisecond, in 10µs clumps, dispatched
// in order. The calendar's flat per-bucket sort-and-sweep is what
// replaces per-event heap sifts here.
func BenchmarkKernelBurst(b *testing.B) {
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := NewKernel(1)
		b.StartTimer()
		for j := 0; j < 100_000; j++ {
			k.At(time.Duration(j%100)*10*time.Microsecond, fn)
		}
		k.Run(time.Millisecond)
	}
}
