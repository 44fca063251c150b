package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"spider/internal/shard"
)

func tinyCityFingerprint(t *testing.T, seed int64) string {
	t.Helper()
	city := shard.NewCity(citySpec(seed, 1500, 60, 30), cityConfig(), 2)
	if err := city.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if k := readCity(city); k.drv.JoinSuccesses == 0 || k.events() == 0 {
		t.Fatalf("seed %d: tiny city simulated nothing: %d joins, %d events", seed, k.drv.JoinSuccesses, k.events())
	}
	return cityFingerprint(city)
}

func TestCityFingerprintIsAFunctionOfTheSeed(t *testing.T) {
	a, b := tinyCityFingerprint(t, 1), tinyCityFingerprint(t, 1)
	if a != b {
		t.Fatalf("same seed, fingerprints %s and %s", a, b)
	}
	if c := tinyCityFingerprint(t, 2); c == a {
		t.Fatalf("seeds 1 and 2 share fingerprint %s", a)
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{name: "window", parent: -1, start: 0, end: 10},
		{name: "epoch", parent: 0, start: 1, end: 4},
		{name: "epoch", parent: 0, start: 4, end: 9},
		{name: "inner", parent: 2, start: 5, end: 6},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"window": 2, "epoch": 7, "inner": 1}
	for name, d := range want {
		if math.Abs(got[name]-d.Seconds()) > 1e-15 {
			t.Errorf("self(%s) = %g s, want %g s", name, got[name], d.Seconds())
		}
	}
}

func TestClassifyChargesInnermostInternalFrame(t *testing.T) {
	p := &profile{
		strings: []string{"",
			"runtime.mallocgc",
			"spider/internal/radio.(*Medium).deliver",
			"spider/internal/sim.(*Kernel).Run",
			"runtime.gcBgMarkWorker",
			"spider/internal/fault.(*Injector).Tick",
		},
		functions: map[uint64]int64{1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
		locations: map[uint64][]uint64{1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {5}},
	}
	known := map[string]bool{"radio": true, "sim": true}
	for _, c := range []struct {
		stack []uint64
		want  string
	}{
		{[]uint64{1, 2, 3}, "radio"},
		{[]uint64{3}, "sim"},
		{[]uint64{1, 4}, "gc"},
		{[]uint64{5, 3}, "other"},
		{[]uint64{1}, "other"},
	} {
		if got := classify(p, c.stack, known); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json to the metrics
// and workloads perfbench prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var runs []string
	for _, w := range workloads {
		runs = append(runs, w.name)
	}
	if !equal(names, runs) {
		t.Errorf("workloads %v, perfbench runs %v", names, runs)
	}

	e2e := endToEnd([]sample{{}})
	var units []string
	for _, m := range b.EndToEnd {
		units = append(units, m.Name+" "+m.Unit)
	}
	var want []string
	for name, m := range e2e {
		want = append(want, name+" "+m.Unit)
	}
	if !equal(units, want) {
		t.Errorf("end_to_end %v, perfbench prints %v", units, want)
	}

	units, want = nil, nil
	for _, m := range b.PerLayer {
		units = append(units, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range layerMetrics {
		want = append(want, m.name+" "+m.unit+" "+m.better)
	}
	if !equal(units, want) {
		t.Errorf("per_layer %v, perfbench prints %v", units, want)
	}
}

func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
