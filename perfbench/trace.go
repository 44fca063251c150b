package main

import (
	"fmt"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by this benchmark
// around a public API call. Spans nest strictly: the benchmark runs on one
// goroutine, so a child always ends before its parent.
type span struct {
	name       string
	parent     int // index into the tracer's spans, -1 for a root
	start, end time.Duration
}

// tracer keeps a traced iteration's spans, and the CPU profile of its
// simulation windows, in memory. A nil tracer is the untraced
// iteration: every method costs one nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	// cpuNS accumulates per-layer CPU nanoseconds over every profiled
	// window of the iteration.
	cpuNS  map[string]float64
	prof   *cpuProfile
	checks *checks
}

func newTracer(c *checks) *tracer {
	return &tracer{t0: time.Now(), cpuNS: map[string]float64{}, checks: c}
}

// profile starts the CPU profile at the opening of a simulation window.
func (t *tracer) profile() {
	if t == nil {
		return
	}
	t.prof = startCPUProfile(t.checks)
}

// unprofile stops it at the window's close.
func (t *tracer) unprofile() {
	if t == nil || t.prof == nil {
		return
	}
	for layer, v := range t.prof.stop(t.checks) {
		t.cpuNS[layer] += v
	}
	t.prof = nil
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = time.Since(t.t0)
	return t.spans[i].end - t.spans[i].start
}

// total sums the durations of every span with the given name.
func total(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// selfTimes sums each span name's self time: its duration minus the
// time its direct children cover.
func selfTimes(spans []span) map[string]float64 {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.name] += self[i].Seconds()
	}
	return out
}

// printSpans prints the traced iteration's span table.
func printSpans(traced []sample) {
	if len(traced) == 0 {
		return
	}
	spans := traced[len(traced)-1].spans
	count := make(map[string]int)
	var names []string
	for _, s := range spans {
		if count[s.name] == 0 {
			names = append(names, s.name)
		}
		count[s.name]++
	}
	sort.Strings(names)
	self := selfTimes(spans)
	fmt.Printf("spans of the traced iteration:\n  %-28s %6s %12s %12s\n", "name", "count", "total_s", "self_s")
	for _, n := range names {
		fmt.Printf("  %-28s %6d %12.6f %12.6f\n", n, count[n], total(spans, n).Seconds(), self[n])
	}
}
