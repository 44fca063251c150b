package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"time"

	"spider/internal/archive"
	"spider/internal/shard"
)

// metroReps is how many times an iteration builds, encodes and decodes
// the archive document.
const metroReps = 3

// metroStorm is one iteration of the metro join storm: plan and build a
// quarter of the 30×30 km north-star metro at the same densities (15×15
// km, 12,500 APs, 25,000 clients), then simulate its first virtual
// second, in which every client scans, associates and DHCPs at once.
// The city's durable output is its archive document: save builds and
// encodes it, load decodes it.
func metroStorm(e *env, tr *tracer) sample {
	const storm = time.Second
	spec := citySpec(e.seed, 15_000, 12_500, 25_000)
	s := sample{layer: map[string]float64{}}

	start := time.Now()
	tr.begin("setup")
	if tr != nil {
		tr.begin("plan")
		spec.Plan()
		s.layer["scenario.plan_s"] = tr.end().Seconds()
	}
	tr.begin("build")
	city := shard.NewCity(spec, cityConfig(), e.workers)
	s.layer["shard.build_s"] = tr.end().Seconds()
	tr.end()
	s.setupS = secondsSince(start)

	// Each phase starts from a collected heap, so where the collector
	// runs inside it, and the resident high-water mark, repeat.
	runtime.GC()
	c0 := readCity(city)
	r0 := readRT()
	tr.begin("window")
	tr.profile()
	err := advance(city, storm, tr, s.layer)
	tr.unprofile()
	tr.end()
	r1 := readRT()
	e.checks.noErr(err, "City.Run")
	w := diff(r0, r1)
	s.windowS, s.cpuS, s.allocB, s.peakB = w.wallS, w.cpuS, w.allocB, w.peakB
	for k, v := range w.layer {
		s.layer[k] = v
	}
	s.layer["shard.utilization"] = w.cpuS / (w.wallS * float64(e.workers))

	// Check and fingerprint the city before its archive is built, so the
	// city can be dropped before the document is decoded and the two
	// never share the heap.
	tr.begin("check")
	c1 := readCity(city)
	cityLayer(s.layer, c0, c1, s.windowS)
	s.layer["join.latency_ms_p50"] = joinLatencyP50(city, 0, storm)
	checkClean(e.checks, city, c1)
	e.checks.check(len(city.Clients()) == spec.NumClients,
		"%d clients resident, planned %d", len(city.Clients()), spec.NumClients)
	e.checks.check(c1.drv.JoinSuccesses > 0, "no client joined during the storm")
	cityFP := cityFingerprint(city)
	tr.end()

	// Save builds the archive document and encodes it; load decodes it.
	// Each step takes under a second, so each runs metroReps times from
	// a collected heap and the medians count: the builds while the city
	// lives, then, once it is dropped, encode and decode alternating.
	var a *archive.Archive
	var builds []float64
	for i := 0; i < metroReps; i++ {
		a = nil
		runtime.GC()
		t := time.Now()
		tr.begin("save")
		tr.begin("archive.build")
		a = archive.New(e.seed, archive.FP("perfbench", "metro-storm"))
		a.Experiments = append(a.Experiments,
			archive.CityExperiment(archive.SubID(a.RunID, "experiment/metro", 0), "metro", "", city, storm))
		tr.end()
		tr.end()
		builds = append(builds, secondsSince(t))
	}
	city = nil
	var doc []byte
	var back *archive.Archive
	var encodes, decodes []float64
	for i := 0; i < metroReps; i++ {
		doc, back = nil, nil
		runtime.GC()
		t := time.Now()
		tr.begin("save")
		tr.begin("archive.encode")
		doc = a.Encode()
		tr.end()
		tr.end()
		encodes = append(encodes, secondsSince(t))
		runtime.GC()
		t = time.Now()
		tr.begin("load")
		back, err = archive.Decode(doc)
		tr.end()
		decodes = append(decodes, secondsSince(t))
	}
	a = nil
	s.saveS = medianOf(builds) + medianOf(encodes)
	s.loadS = medianOf(decodes)
	s.layer["archive.bytes"] = float64(len(doc))
	s.layer["archive.decode_s"] = s.loadS

	tr.begin("check")
	if e.checks.noErr(err, "archive.Decode") {
		e.checks.check(len(back.Experiments) == 1 && len(back.Experiments[0].Clients) == spec.NumClients,
			"decoded metro archive does not hold %d client ledgers", spec.NumClients)
		e.checks.check(bytes.Equal(back.Encode(), doc), "metro archive does not re-encode to identical bytes")
	}
	sum := sha256.Sum256(doc)
	s.fp = cityFP + hex.EncodeToString(sum[:8])
	tr.end()
	return s
}
