package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rtSnap is a point-in-time read of the process counters a measured
// window is the difference of.
type rtSnap struct {
	wall        time.Time
	cpu         float64 // process user+system CPU seconds
	allocBytes  float64
	allocObjs   float64
	gcCycles    float64
	gcCPU       float64 // runtime/metrics estimate of GC CPU seconds
	totalCPU    float64 // runtime/metrics estimate of all CPU seconds
	pauseTotalN float64 // stop-the-world GC pause, nanoseconds
	peakRSS     float64 // resident high-water mark so far, bytes
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRT() rtSnap {
	peak := peakRSSBytes()
	metrics.Read(rtSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		wall:        time.Now(),
		cpu:         processCPU(),
		allocBytes:  value(rtSamples[0]),
		allocObjs:   value(rtSamples[1]),
		gcCycles:    value(rtSamples[2]),
		gcCPU:       value(rtSamples[3]),
		totalCPU:    value(rtSamples[4]),
		pauseTotalN: float64(ms.PauseTotalNs),
		peakRSS:     peak,
	}
}

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// window is the difference between two snapshots, and the resident
// high-water mark at its close.
type window struct {
	wallS, cpuS, allocB, peakB float64
	layer                      map[string]float64
}

func diff(a, b rtSnap) window {
	w := window{
		wallS:  b.wall.Sub(a.wall).Seconds(),
		cpuS:   b.cpu - a.cpu,
		allocB: b.allocBytes - a.allocBytes,
		peakB:  b.peakRSS,
		layer: map[string]float64{
			"gc.cycles":        b.gcCycles - a.gcCycles,
			"gc.alloc_objects": b.allocObjs - a.allocObjs,
			"gc.pause_ms":      (b.pauseTotalN - a.pauseTotalN) / 1e6,
		},
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		w.layer["gc.cpu_fraction"] = (b.gcCPU - a.gcCPU) / d
	}
	return w
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSBytes is the process's resident-set high-water mark (VmHWM),
// falling back to the Go runtime's total mapped memory where /proc is
// unavailable.
func peakRSSBytes() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys)
}
