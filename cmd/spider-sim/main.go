// Command spider-sim runs one vehicular drive with a chosen driver
// configuration and reports the paper's §4.3 metrics.
//
// Usage:
//
//	spider-sim -config ch1-multi -minutes 30
//	spider-sim -config 3ch-multi -city boston -speed 8 -seed 7
//	spider-sim -config 3ch-multi -reps 8 -workers 4
//	spider-sim -city citygrid -clients 100 -aps 600 -minutes 2 -shards 4
//
// Configurations: ch1-multi, ch1-single, 3ch-multi, 3ch-single, stock.
//
// -city citygrid runs the sharded city-scale scenario instead of a
// single drive: a whole vehicle fleet over a square-kilometer AP
// deployment, partitioned into spatial tiles advancing in lockstep.
// -shards sets how many tiles advance concurrently; results are
// byte-identical at any value.
//
// With -reps N > 1, N independent replications of the drive run on the
// sweep engine (bounded by -workers goroutines) and the report adds
// mean ± stddev across replications. Replication seeds derive from
// (seed, config, rep), so the same flags always reproduce the same
// numbers at any worker count.
//
// Both modes build their worlds through internal/expt, the same run
// paths the paper's experiments use. A flag only the other mode reads
// is an error, not a silent no-op: -speed and -pcap are drive-only, and
// -clients, -shards, -area-w, -area-h, -join-spread, -join-ramp and the
// checkpoint flags require -city citygrid.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"spider/internal/archive"
	"spider/internal/atomicfile"
	"spider/internal/checkpoint"
	"spider/internal/core"
	"spider/internal/expt"
	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/pcap"
	"spider/internal/prof"
	"spider/internal/sweep"
)

// simRun is one invocation's run settings: the experiment options
// spider-exp also takes (seed, chaos, workers, shards, join admission)
// plus the scenario flags only this command has.
type simRun struct {
	expt.Options
	config, city        string
	clients, aps        int
	minutes, reps       int
	speed, areaW, areaH float64
	cfg                 core.Config // the -config driver
	fp                  string      // config fingerprint of the run
}

// fingerprint covers every flag that changes results and none that may
// not: -workers and -shards are deliberately outside it, since archives
// must compare byte-identical across them.
func (r simRun) fingerprint() string {
	return archive.FP(r.AppendJoinFP(
		"config="+r.config,
		"city="+r.city,
		fmt.Sprintf("clients=%d", r.clients),
		fmt.Sprintf("minutes=%d", r.minutes),
		fmt.Sprintf("speed=%g", r.speed),
		fmt.Sprintf("aps=%d", r.aps),
		fmt.Sprintf("area=%gx%g", r.areaW, r.areaH),
		fmt.Sprintf("reps=%d", r.reps),
		"chaos="+r.Chaos,
	)...)
}

func (r simRun) dur() time.Duration { return time.Duration(r.minutes) * time.Minute }

// outputs is where a run writes; none of it is part of run identity.
type outputs struct {
	pcap, metrics, trace, archive string
	traceFilter                   []string
	ckptOut, resume               string
	ckptEvery                     int // rewrite ckptOut every N barrier epochs (0 = only at end)
}

// observed reports whether the run needs observation bundles: archiving
// wants the metrics snapshot and trace spans even without -metrics-out,
// and attaching obs never perturbs results (the registry is passive).
func (out outputs) observed() bool {
	return out.metrics != "" || out.trace != "" || out.archive != ""
}

// Flags only one mode reads. Setting one in the other mode is rejected:
// ignoring it would drop an output silently, and a flag inside the
// fingerprint (-speed) would split the run ID of identical runs.
var (
	cityOnly  = []string{"clients", "shards", "area-w", "area-h", "join-spread", "join-ramp", "checkpoint-out", "checkpoint-every", "resume"}
	driveOnly = []string{"speed", "pcap"}
)

// check rejects invocations that are invalid before anything runs.
func (r simRun) check(fs *flag.FlagSet, out outputs) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if r.reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	citygrid := r.city == "citygrid"
	only, why := cityOnly, "requires -city citygrid"
	if citygrid {
		only, why = driveOnly, "is not read with -city citygrid"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(only, f.Name) {
			err = fmt.Errorf("-%s %s", f.Name, why)
		}
	})
	if err != nil {
		return err
	}
	if citygrid {
		if r.reps > 1 {
			return fmt.Errorf("-city citygrid requires -reps 1 (use -shards for parallelism)")
		}
		return nil
	}
	if _, err := expt.DriveSpec(r.city, r.Seed, r.speed, r.aps); err != nil {
		return err
	}
	if r.reps > 1 && out.pcap != "" {
		return fmt.Errorf("-pcap requires -reps 1")
	}
	if r.reps > 1 && out.trace != "" {
		return fmt.Errorf("-trace-out requires -reps 1")
	}
	return nil
}

// driveResult is one replication: the drive as built and run, its
// checker verdict (nil without -chaos), and its observation exports
// (nil without -metrics-out, -trace-out or -archive-out). Each
// replication snapshots its own registry; the snapshots merge in index
// order, so the merged export is identical at any -workers value.
type driveResult struct {
	expt.Drive
	seed       int64
	speedMS    float64
	checkerErr error
	snap       obs.Snapshot
	tracer     *obs.Tracer
}

// runDrive builds a fresh drive world through expt from the flags and
// one seed, and runs it. Each call is independent, so replications can
// run concurrently.
func runDrive(r simRun, seed int64, out outputs, stdout io.Writer) (driveResult, error) {
	spec, err := expt.DriveSpec(r.city, seed, r.speed, r.aps)
	if err != nil {
		return driveResult{}, err
	}
	var o *obs.Obs
	if out.observed() {
		o = obs.New(0)
		o.Tracer.SetFilter(out.traceFilter...)
	}
	d, err := expt.NewDrive(spec, r.cfg, o, r.Chaos)
	if err != nil {
		return driveResult{}, err
	}
	var capture *pcap.Capture
	if out.pcap != "" {
		capture = pcap.NewCapture(d.World.Medium, 0)
	}
	d.World.Run(r.dur())

	if capture != nil {
		f, err := os.Create(out.pcap)
		if err != nil {
			return driveResult{}, err
		}
		n, err := capture.Dump(f)
		f.Close()
		if err != nil {
			return driveResult{}, err
		}
		fmt.Fprintf(stdout, "wrote %d frames to %s (dropped %d over the capture limit)\n",
			n, out.pcap, capture.Dropped)
	}
	res := driveResult{Drive: d, seed: seed, speedMS: spec.SpeedMS}
	if d.Chaos != nil {
		res.checkerErr = d.Chaos.Checker.Verify()
	}
	if o != nil {
		res.snap = o.Reg.Snapshot()
		res.tracer = o.Tracer
	}
	return res, nil
}

// runDrives runs -reps replications of the drive on the sweep engine,
// writes the exports and reports. A single drive runs at the flag seed;
// replication rep derives its seed from (seed, config, rep): distinct
// streams per rep, reproducible at any -workers value. Results come back
// index-ordered, so the report and every export are worker-count
// independent.
func runDrives(r simRun, out outputs, stdout, stderr io.Writer) error {
	dur := r.dur()
	start := time.Now()
	results, err := sweep.RunN(context.Background(), r.Workers, r.reps,
		func(_ context.Context, rep int) (driveResult, error) {
			seed := r.Seed
			if r.reps > 1 {
				seed = sweep.TaskSeed(r.Seed, r.config, rep)
			}
			return runDrive(r, seed, out, stdout)
		})
	if err != nil {
		return err
	}
	header := fmt.Sprintf("Drive: %s, %d APs, %.1f m/s, %v simulated",
		r.city, len(results[0].World.APs), results[0].speedMS, dur)
	if r.reps == 1 {
		fmt.Fprintf(stdout, "%s (%v wall)\nDriver: %s\n\n", header, time.Since(start).Round(time.Millisecond), r.cfg.Mode)
		report(stdout, results[0], dur)
	}

	if out.metrics != "" {
		var snaps []obs.Snapshot
		for _, res := range results {
			snaps = append(snaps, res.snap)
		}
		if err := obs.WriteMetricsFile(out.metrics, obs.MergeSnapshots(snaps...)); err != nil {
			return err
		}
	}
	if out.trace != "" {
		tr := results[0].tracer
		if err := obs.WriteTraceFile(out.trace, tr); err != nil {
			return err
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "spider-sim: trace ring wrapped; oldest %d events dropped (narrow with -trace-filter)\n", d)
		}
	}
	if out.archive != "" {
		if err := writeDriveArchive(stdout, r, out.archive, results); err != nil {
			return err
		}
	}

	if r.reps > 1 {
		fmt.Fprintf(stdout, "%s ×%d reps (%v wall, %d workers)\nDriver: %s\n\n", header, r.reps,
			time.Since(start).Round(time.Millisecond), sweep.Workers(r.Workers), r.cfg.Mode)
		var tputs, conn []float64
		for i, res := range results {
			rec := res.Client.Rec
			tputs = append(tputs, rec.ThroughputKBps(dur))
			conn = append(conn, rec.Connectivity(dur))
			fmt.Fprintf(stdout, "  rep %d (seed %d): %s, connectivity %s, %d connections, %d disruptions\n",
				i, res.seed, metrics.FormatKBps(tputs[i]), metrics.FormatPct(conn[i]),
				len(rec.Connections(dur)), len(rec.Disruptions(dur)))
			if res.checkerErr != nil {
				fmt.Fprintf(stdout, "    CHECKER FAILED: %v\n", res.checkerErr)
			}
		}
		fmt.Fprintf(stdout, "\n  avg throughput:   %s ± %s\n",
			metrics.FormatKBps(metrics.Mean(tputs)), metrics.FormatKBps(metrics.StdDev(tputs)))
		fmt.Fprintf(stdout, "  connectivity:     %s ± %s\n",
			metrics.FormatPct(metrics.Mean(conn)), metrics.FormatPct(metrics.StdDev(conn)))
	}
	for i, res := range results {
		if res.checkerErr != nil {
			return fmt.Errorf("drive %d: checker: %w", i, res.checkerErr)
		}
	}
	return nil
}

// report prints one drive's §4.3 metrics.
func report(stdout io.Writer, res driveResult, dur time.Duration) {
	rec := res.Client.Rec
	fmt.Fprintf(stdout, "  avg throughput:   %s\n", metrics.FormatKBps(rec.ThroughputKBps(dur)))
	fmt.Fprintf(stdout, "  connectivity:     %s\n", metrics.FormatPct(rec.Connectivity(dur)))
	if conns := rec.Connections(dur); len(conns) > 0 {
		fmt.Fprintf(stdout, "  connections:      %d (median %.0fs)\n", len(conns), metrics.DurationsCDF(conns).Median())
	}
	if gaps := rec.Disruptions(dur); len(gaps) > 0 {
		fmt.Fprintf(stdout, "  disruptions:      %d (median %.0fs)\n", len(gaps), metrics.DurationsCDF(gaps).Median())
	}
	if inst := metrics.NewCDF(rec.InstantaneousKBps(dur)); inst.N() > 0 {
		fmt.Fprintf(stdout, "  inst. bandwidth:  p50 %.0f / p90 %.0f KBps\n",
			inst.Quantile(0.5), inst.Quantile(0.9))
	}
	st := res.Client.Driver.Stats()
	fmt.Fprintf(stdout, "\n  joins: %d ok / %d dhcp-failed (%d fast-path, %d soft handoffs), assoc %d/%d, switches %d\n",
		st.JoinSuccesses, st.DHCPFailures, st.FastPathJoins, st.SoftHandoffs,
		st.AssocSuccesses, st.AssocAttempts, st.Switches)
	if res.Chaos != nil {
		fmt.Fprintf(stdout, "  recovery: %d blacklisted (%d evictions), %d lease revalidations, %d reset faults\n",
			st.Blacklisted, st.BlacklistEvictions, st.LeaseRevalidations, st.ResetFaults)
		fmt.Fprintf(stdout, "\n%s", res.Chaos.Injector.Report())
		if res.checkerErr != nil {
			fmt.Fprintf(stdout, "\n  CHECKER FAILED: %v\n", res.checkerErr)
		} else {
			fmt.Fprintf(stdout, "  checker: clean\n")
		}
	}
}

// writeDriveArchive archives one or more drive replications as one
// document: rep i becomes experiment "drive[i]" holding the client's
// ledger, the fault ledger, the metrics snapshot, trace-span summary
// and headline results. Replications come back index-ordered from the
// sweep, so the document is byte-identical at any -workers value.
func writeDriveArchive(stdout io.Writer, r simRun, path string, results []driveResult) error {
	dur := r.dur()
	a := archive.New(r.Seed, r.fp)
	for i, res := range results {
		expID := archive.SubID(a.RunID, fmt.Sprintf("experiment/drive[%d]", i), 0)
		exp := archive.Experiment{ID: expID, Name: fmt.Sprintf("drive[%d]", i), Chaos: r.Chaos}
		exp.Clients = append(exp.Clients, archive.ClientLedgerFrom(expID, 0, res.Client))
		if res.Chaos != nil {
			exp.Faults = archive.FaultsFrom(expID, res.Chaos.Injector.Snapshot())
		}
		exp.Metrics = archive.MetricsFrom(expID, res.snap)
		if res.tracer != nil {
			exp.Spans = archive.SpansFrom(expID, res.tracer.Events())
		}
		addNum := func(key string, v float64) {
			exp.Results = append(exp.Results, archive.Result{
				ID:   archive.SubID(expID, "result", len(exp.Results)),
				Name: "drive", Key: key, Num: &v,
			})
		}
		rec := res.Client.Rec
		addNum("throughput_KBps", rec.ThroughputKBps(dur))
		addNum("connectivity", rec.Connectivity(dur))
		addNum("connections", float64(len(rec.Connections(dur))))
		addNum("disruptions", float64(len(rec.Disruptions(dur))))
		a.Experiments = append(a.Experiments, exp)
	}
	if err := atomicfile.WriteFile(path, a.Encode()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (run %s, %d experiments)\n", path, a.RunID, len(a.Experiments))
	return nil
}

// runCityGrid builds the sharded city through expt, advances it under
// the checkpoint/resume loop, and reports fleet-wide aggregates.
func runCityGrid(r simRun, out outputs, stdout io.Writer) error {
	aps := r.aps
	if aps <= 0 {
		aps = 600
	}
	spec := expt.CitySpec(r.Seed, aps, r.clients, r.areaW, r.areaH)
	var ob *expt.CityObs
	if out.observed() {
		ob = &expt.CityObs{Filter: out.traceFilter}
	}
	start := time.Now()
	c, err := expt.NewCity(spec, r.cfg, r.Options, ob)
	if err != nil {
		return fmt.Errorf("citygrid: %w", err)
	}
	if out.resume != "" {
		doc, err := checkpoint.ReadFile(out.resume)
		if err != nil {
			return err
		}
		if err := doc.Apply(c, r.Seed, r.fp); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "resumed from %s at t=%v\n", out.resume, c.Now())
	}
	writeCkpt := func() error {
		doc, err := checkpoint.Capture(c, r.Seed, r.fp)
		if err != nil {
			return err
		}
		return checkpoint.WriteFile(out.ckptOut, doc)
	}
	dur := r.dur()
	if out.ckptOut != "" && out.ckptEvery > 0 {
		// Periodic checkpoints land on the barrier-epoch grid, so a
		// resumed run reproduces the uninterrupted run's barrier
		// schedule (and therefore its bytes) exactly.
		step := time.Duration(out.ckptEvery) * c.Layout.Epoch
		for c.Now() < dur {
			next := c.Now() + step
			if next > dur {
				next = dur
			}
			if err := c.Run(next); err != nil {
				return err
			}
			if err := writeCkpt(); err != nil {
				return err
			}
		}
	} else if err := c.Run(dur); err != nil {
		return err
	}
	if out.ckptOut != "" && out.ckptEvery <= 0 {
		if err := writeCkpt(); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "City: %.0f×%.0f m, %d APs, %d clients, %v simulated (%v wall)\n",
		spec.AreaW, spec.AreaH, aps, r.clients, dur, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "Layout: %s, %d shard workers\n", c.Layout, sweep.Workers(c.Workers))
	fmt.Fprintf(stdout, "Driver: %s\n\n", r.cfg.Mode)

	var tputs []float64
	var joins, switches, haloRecs uint64
	for _, cl := range c.Clients() {
		tputs = append(tputs, cl.Rec.ThroughputKBps(dur))
		s := cl.Stats()
		joins += s.JoinSuccesses
		switches += s.Switches
	}
	for _, t := range c.Tiles {
		haloRecs += t.World.Medium.Stats().HaloInjected
		fmt.Fprintf(stdout, "  tile %d [%5.0f, %5.0f)×[%5.0f, %5.0f): %3d APs, %3d clients\n",
			t.Index, t.X0, t.X1, t.Y0, t.Y1, len(t.World.APs), len(t.World.Clients))
	}
	cdf := metrics.NewCDF(tputs)
	fmt.Fprintf(stdout, "\n  fleet goodput:    mean %s, p50 %s, p90 %s\n",
		metrics.FormatKBps(metrics.Mean(tputs)),
		metrics.FormatKBps(cdf.Quantile(0.5)), metrics.FormatKBps(cdf.Quantile(0.9)))
	fmt.Fprintf(stdout, "  joins: %d ok, switches %d\n", joins, switches)
	fmt.Fprintf(stdout, "  shard machinery:  %d migrations, %d halo beacons mirrored\n", c.Migrations, haloRecs)
	if len(c.Injectors) > 0 {
		fmt.Fprintf(stdout, "  faults injected:  %d\n", c.TotalInjected())
	}
	if inv := c.InvariantsTotal(); inv > 0 {
		fmt.Fprintf(stdout, "  INVARIANT VIOLATIONS: %d\n", inv)
	}
	// Engine summary: how fast the run went and what it cost. Fired
	// counts are deterministic (kernel events are the simulation), the
	// rate and heap figure are this machine's.
	var fired uint64
	for _, t := range c.Tiles {
		fired += t.World.Kernel.Fired()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wall := time.Since(start)
	fmt.Fprintf(stdout, "  engine: %.1f sim-s per wall-s, %d kernel events dispatched, peak heap %d MiB\n",
		dur.Seconds()/wall.Seconds(), fired, ms.HeapSys>>20)

	if out.metrics != "" {
		if err := obs.WriteMetricsFile(out.metrics, c.MergedSnapshot()); err != nil {
			return err
		}
	}
	if out.trace != "" {
		if err := obs.WriteTraceEventsFile(out.trace, c.TraceEvents()); err != nil {
			return err
		}
	}
	if out.archive != "" {
		a := archive.New(r.Seed, r.fp)
		expID := archive.SubID(a.RunID, "experiment/citygrid", 0)
		a.Experiments = append(a.Experiments, archive.CityExperiment(expID, "citygrid", r.Chaos, c, dur))
		if err := atomicfile.WriteFile(out.archive, a.Encode()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (run %s)\n", out.archive, a.RunID)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the simulation and
// returns the process exit status (0 ok, 1 run failure or checker
// violation, 2 bad invocation).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spider-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	r := simRun{Options: expt.Options{Scale: 1}}
	var out outputs
	var traceFilter, cpuProf, memProf string
	fs.StringVar(&r.config, "config", "ch1-multi", "driver configuration")
	fs.StringVar(&r.city, "city", "amherst", "scenario: amherst, boston, or citygrid (sharded fleet)")
	fs.IntVar(&r.clients, "clients", 100, "vehicle fleet size (citygrid only)")
	fs.IntVar(&r.Shards, "shards", 1, "concurrent tile workers (citygrid only; results identical at any value)")
	fs.IntVar(&r.minutes, "minutes", 30, "drive duration in simulated minutes")
	fs.Int64Var(&r.Seed, "seed", 1, "simulation seed")
	fs.Float64Var(&r.speed, "speed", 0, "override vehicle speed (m/s)")
	fs.IntVar(&r.aps, "aps", 0, "override deployed AP count")
	fs.Float64Var(&r.areaW, "area-w", 0, "override city width in meters (citygrid only)")
	fs.Float64Var(&r.areaH, "area-h", 0, "override city height in meters (citygrid only)")
	fs.IntVar(&r.reps, "reps", 1, "independent drive replications")
	fs.IntVar(&r.Workers, "workers", runtime.NumCPU(), "worker goroutines when -reps > 1")
	fs.StringVar(&out.pcap, "pcap", "", "write an over-the-air capture to this file (single rep only)")
	fs.StringVar(&r.Chaos, "chaos", "", "fault injection: off, mild, aggressive, or a timeline script")
	fs.StringVar(&cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&memProf, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&out.metrics, "metrics-out", "", "write Prometheus-format metrics to this file (reps merge in index order)")
	fs.StringVar(&out.trace, "trace-out", "", "write the event trace to this file: .jsonl for JSONL, else Chrome trace JSON (single rep only)")
	fs.StringVar(&traceFilter, "trace-filter", "", "comma-separated category prefixes to trace (empty = all)")
	fs.StringVar(&out.archive, "archive-out", "", "write a run archive to this file (byte-identical at any -workers/-shards)")
	fs.StringVar(&out.ckptOut, "checkpoint-out", "", "write a resumable checkpoint to this file (citygrid only)")
	fs.IntVar(&out.ckptEvery, "checkpoint-every", 0, "rewrite -checkpoint-out every N barrier epochs (0 = only at run end)")
	fs.StringVar(&out.resume, "resume", "", "resume a citygrid run from this checkpoint file (same seed and flags)")
	fs.DurationVar(&r.JoinSpread, "join-spread", 0, "stagger client admission over this window (citygrid only; 0 = legacy t=0 join storm)")
	fs.StringVar(&r.JoinRamp, "join-ramp", "uniform", "admission offset shape with -join-spread: uniform or exp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFilter != "" {
		out.traceFilter = strings.Split(traceFilter, ",")
	}
	stopProf, err := prof.Start(cpuProf, memProf)
	if err != nil {
		fmt.Fprintln(stderr, "spider-sim:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "spider-sim:", err)
		}
	}()

	r.cfg, err = expt.SpiderConfig(r.config)
	if err == nil {
		err = r.check(fs, out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "spider-sim:", err)
		return 2
	}
	r.fp = r.fingerprint()
	if r.city == "citygrid" {
		err = runCityGrid(r, out, stdout)
	} else {
		err = runDrives(r, out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "spider-sim:", err)
		return 1
	}
	return 0
}
