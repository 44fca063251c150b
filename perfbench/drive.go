package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spider/internal/archive"
	"spider/internal/atomicfile"
	"spider/internal/checkpoint"
	"spider/internal/shard"
)

// The city-drive timeline in virtual time: warm up past the join storm,
// measure a steady window of driving, then after the checkpoint round
// trip continue both cities over a check span and compare them.
const (
	driveWarmup = 5 * time.Second
	driveWindow = 10 * time.Second
	driveCheck  = time.Second
)

// cityDrive is one iteration of the driving city: a 6×6 km city with
// 2000 APs and 1000 vehicles, warmed up, driven through a steady window,
// then checkpointed to a file and resumed into a fresh city.
func cityDrive(e *env, tr *tracer) sample {
	spec := citySpec(e.seed, 6_000, 2_000, 1_000)
	cfg := cityConfig()
	s := sample{layer: map[string]float64{}}

	start := time.Now()
	tr.begin("setup")
	if tr != nil {
		tr.begin("plan")
		spec.Plan()
		s.layer["scenario.plan_s"] = tr.end().Seconds()
	}
	tr.begin("build")
	city := shard.NewCity(spec, cfg, e.workers)
	s.layer["shard.build_s"] = tr.end().Seconds()
	tr.begin("warmup")
	err := city.Run(driveWarmup)
	s.layer["shard.warmup_s"] = tr.end().Seconds()
	tr.end()
	s.setupS = secondsSince(start)
	e.checks.noErr(err, "City.Run (warm-up)")

	// Each phase starts from a collected heap, so where the collector
	// runs inside it, and the resident high-water mark, repeat.
	runtime.GC()
	c0 := readCity(city)
	r0 := readRT()
	tr.begin("window")
	tr.profile()
	err = advance(city, driveWindow+driveWarmup, tr, s.layer)
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
	c1 := readCity(city)
	cityLayer(s.layer, c0, c1, s.windowS)
	s.layer["join.latency_ms_p50"] = joinLatencyP50(city, driveWarmup, driveWarmup+driveWindow)

	// Save: Capture + WriteFile, with WriteFile's two halves — encode,
	// then the atomic durable write — timed apart.
	configFP := archive.FP("perfbench", "city-drive")
	path := filepath.Join(e.workdir, "city.ckpt")
	runtime.GC()
	t := time.Now()
	tr.begin("save")
	tr.begin("checkpoint.capture")
	ck, err := checkpoint.Capture(city, e.seed, configFP)
	s.layer["checkpoint.capture_s"] = tr.end().Seconds()
	if e.checks.noErr(err, "checkpoint.Capture") {
		tr.begin("checkpoint.encode")
		doc := ck.Encode()
		s.layer["checkpoint.encode_s"] = tr.end().Seconds()
		tr.begin("checkpoint.write")
		err = atomicfile.WriteFile(path, doc)
		s.layer["checkpoint.write_s"] = tr.end().Seconds()
		e.checks.noErr(err, "checkpoint.WriteFile")
	}
	tr.end()
	s.saveS = secondsSince(t)
	ck = nil
	runtime.GC()

	// Load: ReadFile (its read and decode halves timed apart) + NewCity
	// + Apply.
	t = time.Now()
	tr.begin("load")
	tr.begin("checkpoint.read")
	doc, err := os.ReadFile(path)
	s.layer["checkpoint.read_s"] = tr.end().Seconds()
	if err == nil {
		tr.begin("checkpoint.decode")
		ck, err = checkpoint.Decode(doc)
		s.layer["checkpoint.decode_s"] = tr.end().Seconds()
	}
	var resumed *shard.City
	if e.checks.noErr(err, "checkpoint.ReadFile") {
		tr.begin("checkpoint.build")
		resumed = shard.NewCity(spec, cfg, e.workers)
		s.layer["checkpoint.build_s"] = tr.end().Seconds()
		tr.begin("checkpoint.apply")
		err = ck.Apply(resumed, e.seed, configFP)
		s.layer["checkpoint.apply_s"] = tr.end().Seconds()
		if !e.checks.noErr(err, "Checkpoint.Apply") {
			resumed = nil
		}
	}
	tr.end()
	s.loadS = secondsSince(t)
	ck = nil // the decoded state is applied; let it go before the check span
	if fi, err := os.Stat(path); e.checks.noErr(err, "stat checkpoint") {
		s.layer["checkpoint.bytes"] = float64(fi.Size())
	}
	e.checks.noErr(os.Remove(path), "remove checkpoint")

	tr.begin("check")
	end := driveWarmup + driveWindow + driveCheck
	e.checks.noErr(city.Run(end), "City.Run (check span)")
	s.fp = cityFingerprint(city)
	checkClean(e.checks, city, readCity(city))
	if resumed != nil {
		e.checks.noErr(resumed.Run(end), "City.Run (resumed, check span)")
		got := cityFingerprint(resumed)
		e.checks.check(got == s.fp, "resumed city fingerprint %s, uninterrupted %s", got, s.fp)
		checkClean(e.checks, resumed, readCity(resumed))
	}
	tr.end()
	return s
}
