// Command perfbench is the repository benchmark. It drives one workload
// through the simulator's public package APIs, times those calls from
// outside, checks that the outputs are correct, and prints every metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run ends with a traced iteration and prints the per-layer metrics:
// spans recorded here around each public call, the simulator's own
// counters, and a CPU profile of the simulation window attributed to
// the internal/* package of each sample's innermost frame.
//
// Every workload is closed-loop: one simulation at a time in one
// process, with city and sweep workers equal to the CPU count. Build and
// run it from the repository root with perfbench/run.sh; README.md in
// this directory describes the workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// sample is what one iteration (set-up plus measured window) yields.
type sample struct {
	traced bool
	setupS float64
	// windowS is the simulation window: the workload's measured work.
	// allocB and cpuS cover that window only; peakB is the process's
	// resident high-water mark at its close.
	windowS float64
	allocB  float64
	cpuS    float64
	peakB   float64
	// saveS and loadS time turning the simulated state into its
	// durable document and reading it back.
	saveS, loadS float64
	// fp fingerprints the iteration's simulated statistics; it is a pure
	// function of the seed.
	fp string
	// layer holds the per-layer values; only a traced iteration's are
	// reported.
	layer map[string]float64
	spans []span
}

// env is what every workload iteration shares.
type env struct {
	seed    int64
	workers int
	workdir string
	checks  *checks
}

type workload struct {
	name    string
	iterate func(e *env, tr *tracer) sample
	// nominal is the measured part of one iteration (set-up, window,
	// save and load) on the reference machine (README.md). The
	// iteration count is derived from it, not from the clock, so every
	// run of a workload medians the same number of iterations: the first
	// iteration in a process runs slower, and a count that varied with
	// machine load would move the median.
	nominal time.Duration
}

var workloads = []workload{
	{"metro-storm", metroStorm, 4 * time.Second},
	{"city-drive", cityDrive, 4 * time.Second},
	{"paper-suite", paperSuite, 22 * time.Second},
}

// iterations is how many iterations a run of budget makes: enough to
// measure about budget, at least one. In trace mode it is one untraced
// and one traced iteration, after a warm-up iteration when one fits in
// the budget: the first iteration in a process runs slower, and the
// tracing overhead must not include that.
func (w *workload) iterations(budget time.Duration, traceMode bool) (n int, warmup bool) {
	if traceMode {
		if w.nominal <= budget {
			return 3, true
		}
		return 2, false
	}
	n = int((budget + w.nominal/2) / w.nominal)
	if n < 1 {
		n = 1
	}
	return n, false
}

func main() {
	name := flag.String("workload", "", "workload name: metro-storm, city-drive or paper-suite")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "measure for about this many wall seconds")
	trace := flag.Int("trace", 0, "1 = add a traced iteration and print per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for checkpoint and campaign files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload metro-storm|city-drive|paper-suite, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, workers: runtime.NumCPU(), workdir: dir, checks: &checks{}}
	res := run(w, e, time.Duration(*seconds)*time.Second, *trace == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run makes the workload's iterations for the budget and reduces the
// samples to medians.
func run(w *workload, e *env, budget time.Duration, traceMode bool) result {
	n, warmup := w.iterations(budget, traceMode)
	var samples []sample
	for i := 0; i < n; i++ {
		traced := traceMode && i == n-1
		var tr *tracer
		if traced {
			tr = newTracer(e.checks)
		}
		s := w.iterate(e, tr)
		s.traced = traced
		if traced {
			s.spans = tr.spans
			for k, v := range cpuShares(tr.cpuNS) {
				s.layer[k] = v
			}
			s.layer["mem.peak_rss_mb"] = peakRSSBytes() / 1e6
		}
		samples = append(samples, s)
		// Drop the iteration's city before the next one is built, so
		// two never share the heap and the next set-up starts clean.
		runtime.GC()
		debug.FreeOSMemory()
	}

	for _, s := range samples[1:] {
		e.checks.check(s.fp == samples[0].fp,
			"simulated statistics differ between iterations of one seed: %s vs %s", s.fp, samples[0].fp)
	}
	fmt.Printf("fingerprint %s seed=%d %s\n", w.name, e.seed, samples[0].fp)

	var plain, traced []sample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	m := endToEnd(plain)
	if traceMode {
		m = perLayer(plain, traced, warmup)
		printSpans(traced)
	}
	printMetrics(w.name, len(plain), len(traced), m)
	return result{
		Correct:   e.checks.failed == 0,
		Attempted: e.checks.attempted,
		Failed:    e.checks.failed,
		Metrics:   m,
	}
}

func endToEnd(s []sample) map[string]metric {
	return map[string]metric{
		"setup_s":  {median(s, func(x sample) float64 { return x.setupS }), "s"},
		"sim_s":    {median(s, func(x sample) float64 { return x.windowS }), "s"},
		"save_s":   {median(s, func(x sample) float64 { return x.saveS }), "s"},
		"load_s":   {median(s, func(x sample) float64 { return x.loadS }), "s"},
		"alloc_mb": {median(s, func(x sample) float64 { return x.allocB }) / 1e6, "MB"},
		"cpu_s":    {median(s, func(x sample) float64 { return x.cpuS }), "s"},
		// The high-water mark never falls in a process, so only the
		// first iteration's reading is its own window's.
		"peak_rss_mb": {s[0].peakB / 1e6, "MB"},
	}
}

// perLayer reduces the traced iterations to the per-layer table: the
// median of each metric in layerMetrics over the traced iterations,
// every top-level span's self time, and the tracing overhead on the
// simulation window. Every metric is printed on every workload; one of
// a layer the workload never enters reads 0.
func perLayer(plain, traced []sample, warmup bool) map[string]metric {
	for _, s := range traced {
		for name, self := range selfTimes(s.spans) {
			s.layer["span."+name+".self_s"] = self
		}
	}
	on := median(traced, func(x sample) float64 { return x.windowS })
	if warmup {
		plain = plain[1:]
	}
	off := median(plain, func(x sample) float64 { return x.windowS })
	for _, s := range traced {
		s.layer["trace.overhead_s"] = on - off
		s.layer["trace.overhead_pct"] = 100 * (on - off) / off
	}
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{median(traced, func(x sample) float64 { return x.layer[lm.name] }), lm.unit}
	}
	return m
}

func median(s []sample, f func(sample) float64) float64 {
	v := make([]float64, len(s))
	for i, x := range s {
		v[i] = f(x)
	}
	return medianOf(v)
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(name string, plain, traced int, m map[string]metric) {
	fmt.Printf("workload %s: %d untraced and %d traced iterations\n", name, plain, traced)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// checks counts the run's correctness checks; every failed one is
// reported on standard error and makes the result incorrect.
type checks struct{ attempted, failed int }

func (c *checks) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// noErr checks that a public call returned a nil error.
func (c *checks) noErr(err error, call string) bool {
	return c.check(err == nil, "%s: %v", call, err)
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
