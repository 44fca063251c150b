// Command spider-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	spider-exp -list
//	spider-exp -id table2 [-seed 1] [-scale 1.0]
//	spider-exp -id fig2,fig3 -scale 0.25
//	spider-exp -id all -scale 0.25 -archive-out run.json -resume run.campaign
//
// Scale 1.0 runs paper-like durations (a 40-minute drive per
// configuration); smaller scales shrink durations and trial counts
// proportionally. Output is the same rows/series the paper reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"spider/internal/archive"
	"spider/internal/atomicfile"
	"spider/internal/expt"
	"spider/internal/obs"
	"spider/internal/prof"
	"spider/internal/sweep"
)

func main() {
	var (
		id       = flag.String("id", "", "experiment id (fig2…fig14, table1…table4, ablation-…, or 'all')")
		seed     = flag.Int64("seed", 1, "simulation seed")
		scale    = flag.Float64("scale", 1.0, "experiment scale in (0,1]")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker goroutines for parallel sub-runs (results are identical at any count)")
		shards   = flag.Int("shards", 1, "worker goroutines advancing city tiles in the sharded city experiment (results are identical at any count)")
		chaos    = flag.String("chaos", "", "fault profile or timeline for the chaos experiment (mild, aggressive, or a script)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		plotOut  = flag.Bool("plot", false, "render figures as terminal charts instead of data columns")
		svgDir   = flag.String("svg", "", "also write each figure as an SVG into this directory")
		csvDir   = flag.String("csv", "", "also write each figure's series as CSV into this directory")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metricsO = flag.String("metrics-out", "", "write Prometheus-format metrics (accumulated across all runs) to this file")
		traceO   = flag.String("trace-out", "", "write the event trace to this file: .jsonl for JSONL, else Chrome trace JSON (forces -workers 1)")
		traceF   = flag.String("trace-filter", "", "comma-separated category prefixes to trace (empty = all)")
		archO    = flag.String("archive-out", "", "write a run archive to this file (experiments run sequentially in id order; byte-identical at any -workers/-shards)")
		resumeO  = flag.String("resume", "", "campaign state file: skip experiments it records as complete, persist each new one as it finishes (requires -archive-out)")
		joinSpd  = flag.Duration("join-spread", 0, "stagger client admission in the city/metro experiments over this window (0 = legacy t=0 join storm)")
		joinRamp = flag.String("join-ramp", "uniform", "admission offset shape with -join-spread: uniform or exp")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spider-exp:", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "spider-exp:", err)
		}
	}()

	if *list {
		for _, e := range expt.IDs() {
			fmt.Println(e)
		}
		return
	}
	if *id == "" {
		fmt.Fprintln(os.Stderr, "spider-exp: -id required (or -list); e.g. -id table2")
		os.Exit(2)
	}
	if *traceO != "" {
		// A trace of concurrently interleaved worlds is unreadable and
		// nondeterministic; tracing serializes the run.
		*workers = 1
	}
	var o *obs.Obs
	if *metricsO != "" || *traceO != "" {
		o = obs.New(0)
		if *traceF != "" {
			o.Tracer.SetFilter(strings.Split(*traceF, ",")...)
		}
	}
	opts := expt.Options{Seed: *seed, Scale: *scale, Workers: *workers, Chaos: *chaos, Obs: o, Shards: *shards,
		JoinSpread: *joinSpd, JoinRamp: *joinRamp}
	// Unknown or duplicate ids and bad options fail here, before any
	// experiment runs — a typo must not cost a partial campaign.
	ids, err := expt.ResolveIDs(*id)
	if err == nil {
		err = opts.Validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spider-exp:", err)
		os.Exit(2)
	}
	// Experiments are independent worlds on independent kernels, so a
	// multi-experiment run fans out on the sweep engine; the -workers
	// budget covers the whole process (each experiment runs its sub-runs
	// sequentially here, since the fan-out across experiments already
	// fills the pool). Results print in id order regardless of
	// completion order.
	type outcome struct {
		res     fmt.Stringer
		elapsed time.Duration
	}
	perExpt := opts
	exptWorkers := *workers
	if len(ids) > 1 {
		perExpt.Workers = 1
	}
	var arch *archive.Archive
	if *archO != "" {
		// The archive is one document in id order, so the fan-out across
		// experiments goes sequential and each experiment gets the full
		// worker budget back — results are worker-invariant either way.
		arch = expt.NewArchive(opts)
		exptWorkers = 1
		perExpt.Workers = *workers
	}
	var camp *campaignState
	if *resumeO != "" {
		if arch == nil {
			fmt.Fprintln(os.Stderr, "spider-exp: -resume requires -archive-out (the archive is what a campaign resumes)")
			os.Exit(2)
		}
		camp, err = loadCampaign(*resumeO, expt.CampaignFP(opts, ids))
		if err != nil {
			fmt.Fprintln(os.Stderr, "spider-exp:", err)
			os.Exit(1)
		}
		if camp.Archive != nil {
			// Continue the interrupted run's document: already-archived
			// experiments keep their bytes, new ones append in id order.
			arch = camp.Archive
			fmt.Printf("   resuming campaign from %s: %d of %d experiments already archived\n",
				*resumeO, len(camp.Completed), len(ids))
		}
	}
	outs, err := sweep.Map(context.Background(), exptWorkers, ids,
		func(_ context.Context, _ int, e string) (outcome, error) {
			start := time.Now()
			var res fmt.Stringer
			var err error
			switch {
			case camp != nil && camp.Done(e):
				res = skippedResult(e)
			case arch != nil:
				res, err = expt.RunArchived(arch, e, perExpt)
				if err == nil && camp != nil {
					camp.MarkDone(e)
					camp.Archive = arch
					err = camp.save(*resumeO)
				}
			default:
				res, err = expt.Run(e, perExpt)
			}
			return outcome{res: res, elapsed: time.Since(start)}, err
		})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spider-exp: %v\n", err)
		os.Exit(1)
	}
	for i, e := range ids {
		o := outs[i]
		if *plotOut {
			printPlots(o.res)
		} else {
			fmt.Println(o.res)
		}
		if *svgDir != "" {
			if err := writeFigures(*svgDir, ".svg", o.res, figureSVG); err != nil {
				fmt.Fprintf(os.Stderr, "spider-exp: %v\n", err)
				os.Exit(1)
			}
		}
		if *csvDir != "" {
			if err := writeFigures(*csvDir, ".csv", o.res, figureCSV); err != nil {
				fmt.Fprintf(os.Stderr, "spider-exp: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("   [%s regenerated in %v at scale %.2f, seed %d]\n\n",
			e, o.elapsed.Round(time.Millisecond), *scale, *seed)
	}
	if arch != nil {
		if err := atomicfile.WriteFile(*archO, arch.Encode()); err != nil {
			fmt.Fprintln(os.Stderr, "spider-exp:", err)
			os.Exit(1)
		}
		fmt.Printf("   wrote %s (run %s, %d experiments)\n", *archO, arch.RunID, len(arch.Experiments))
	}
	if *metricsO != "" {
		if err := obs.WriteMetricsFile(*metricsO, o.Reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "spider-exp:", err)
			os.Exit(1)
		}
		fmt.Printf("   wrote %s\n", *metricsO)
	}
	if *traceO != "" {
		if err := obs.WriteTraceFile(*traceO, o.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "spider-exp:", err)
			os.Exit(1)
		}
		if d := o.Tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "spider-exp: trace ring wrapped; oldest %d events dropped (narrow with -trace-filter)\n", d)
		}
		fmt.Printf("   wrote %s\n", *traceO)
	}
}

// printPlots renders any figures contained in a result as terminal
// charts; tables and other results fall back to their text form.
func printPlots(res fmt.Stringer) {
	figs := expt.Figures(res)
	if len(figs) == 0 {
		fmt.Println(res)
	}
	for _, f := range figs {
		fmt.Println(f.Plot(72, 18))
	}
}

// writeFigures saves each figure in the result into dir as <id><ext>,
// with the content render gives it. Fig. 4's scenario panels share one
// id, so they are saved — and titled — as fig4-1, fig4-2, …. Results
// without figures write nothing.
func writeFigures(dir, ext string, res fmt.Stringer, render func(expt.Figure) string) error {
	figs := expt.Figures(res)
	if len(figs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	_, numbered := res.(expt.Fig4Result)
	for i, f := range figs {
		if numbered {
			f.ID = fmt.Sprintf("%s-%d", f.ID, i+1)
		}
		path := filepath.Join(dir, f.ID+ext)
		if err := os.WriteFile(path, []byte(render(f)), 0o644); err != nil {
			return err
		}
		fmt.Printf("   wrote %s\n", path)
	}
	return nil
}

// figureCSV renders a figure as one (series, x, y) row per point.
func figureCSV(f expt.Figure) string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, sr := range f.Series {
		for _, p := range sr.Points {
			fmt.Fprintf(&b, "%q,%g,%g\n", sr.Name, p.X, p.Y)
		}
	}
	return b.String()
}

// figureSVG renders a figure as a standalone SVG document.
func figureSVG(f expt.Figure) string { return f.PlotSVG(640, 360) }
