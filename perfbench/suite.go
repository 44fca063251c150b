package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"spider/internal/archive"
	"spider/internal/expt"
	"spider/internal/supervisor"
)

// An iteration runs suiteCampaigns campaigns at suiteScale, one after
// another, each on its own seed derived from the run's. One seed's
// drives set the work of nearly every experiment, so a single campaign
// varies by about 13% from seed to seed; summing two narrows that.
const (
	suiteCampaigns = 2
	suiteScale     = 0.25
)

// Steps that take milliseconds repeat, and a run reports their fastest
// repetition. Single timings of such a step spread from 1x to 2x of the
// fastest, and how many fall in the slow part follows the load other
// processes put on the machine: over eight campaigns the mean of 100
// moved by ±15% and the median further, while the fastest by ±7%
// (README.md). The fastest is the step's cost when nothing else runs.
// It leaves out most of the collector's share of that cost, which a
// mean would spread over the repetitions.
const (
	// suiteOpens is how many times an iteration reopens a supervisor
	// over the store its campaigns left.
	suiteOpens = 100
	// suiteReps is how many times each campaign's archive is fetched
	// and decoded.
	suiteReps = 100
)

// suiteIDs is every registered experiment except the sharded city and
// metro ones, so the suite never enters the shard layer: a shard-only
// change must leave this workload unchanged.
func suiteIDs() string {
	var ids []string
	for _, id := range expt.IDs() {
		if id != "city" && id != "metro" {
			ids = append(ids, id)
		}
	}
	return strings.Join(ids, ",")
}

// paperSuite is one iteration of the paper suite: the campaigns, each
// submitted to a fresh in-process supervisor, all over one shared store.
// A supervisor runs one experiment at a time with its trials fanned
// over the CPU count. setup_s is what a supervisor does before it runs
// anything: open its store (the fastest of suiteOpens reopenings of the
// finished store) plus accept a campaign (the median of the campaigns'
// Submit times). The window, save and load times and the window's allocation
// and CPU are summed over the campaigns.
func paperSuite(e *env, tr *tracer) sample {
	s := sample{layer: map[string]float64{}}
	dir, err := os.MkdirTemp(e.workdir, "suite-")
	if !e.checks.noErr(err, "create supervisor store") {
		return s
	}
	defer os.RemoveAll(dir)
	var submits, runS []float64
	h := sha256.New()
	for k := 0; k < suiteCampaigns; k++ {
		c, ok := suiteCampaign(e, tr, dir, e.seed*suiteCampaigns+int64(k)+1)
		if !ok {
			return s
		}
		submits = append(submits, c.submitS)
		runS = append(runS, c.runS...)
		s.windowS += c.wallS
		s.cpuS += c.cpuS
		s.allocB += c.allocB
		s.peakB = math.Max(s.peakB, c.peakB)
		s.saveS += c.saveS
		s.loadS += c.loadS
		for name, v := range c.layer {
			s.layer[name] += v
		}
		s.layer["expt.claims_passed"] += claimsPassed(c.archive)
		s.layer["archive.bytes"] += float64(len(c.doc))
		h.Write(c.doc)
	}
	s.layer["gc.cpu_fraction"] /= suiteCampaigns
	opens, ok := suiteReopen(e, tr, dir)
	if !ok {
		return s
	}
	s.setupS = minOf(opens) + medianOf(submits)
	s.layer["supervisor.open_ms"] = minOf(opens) * 1e3
	s.layer["supervisor.submit_ms"] = medianOf(submits) * 1e3
	s.layer["archive.fetch_ms"] = s.saveS * 1e3
	s.layer["archive.decode_s"] = s.loadS
	s.layer["expt.runs"] = float64(len(runS))
	s.layer["expt.run_s_p50"] = medianOf(runS)
	for _, v := range runS {
		s.layer["expt.run_s_max"] = math.Max(s.layer["expt.run_s_max"], v)
	}
	s.fp = hex.EncodeToString(h.Sum(nil)[:8])
	return s
}

// suiteReopen times supervisor.New over the store the iteration's
// campaigns left, as a restart would: it reads, decodes and verifies
// every campaign record. Every campaign is done, so the reopened server
// starts no run and shuts down at once.
func suiteReopen(e *env, tr *tracer, dir string) ([]float64, bool) {
	var opens []float64
	for i := 0; i < suiteOpens; i++ {
		runtime.GC()
		tr.begin("setup")
		tr.begin("supervisor.open")
		t := time.Now()
		srv, err := supervisor.New(dir, 1)
		opens = append(opens, secondsSince(t))
		tr.end()
		tr.end()
		if !e.checks.noErr(err, "supervisor.New (reopen)") {
			return nil, false
		}
		done := 0
		for _, st := range srv.List() {
			if st.Status == supervisor.StatusDone && st.CompletedRuns == st.TotalRuns {
				done++
			}
		}
		ok := e.checks.check(done == suiteCampaigns, "reopened store holds %d done campaigns, want %d", done, suiteCampaigns)
		if !e.checks.noErr(srv.Shutdown(context.Background()), "Server.Shutdown (reopened)") || !ok {
			return nil, false
		}
	}
	return opens, true
}

// campaignRun is one campaign's measurements.
type campaignRun struct {
	submitS float64
	window
	saveS, loadS float64
	runS         []float64
	doc          []byte
	archive      *archive.Archive
}

// suiteCampaign sets up a supervisor over the store dir, submits the
// suite on seed, waits for it to finish, then fetches and decodes its
// archive suiteReps times.
func suiteCampaign(e *env, tr *tracer, dir string, seed int64) (c campaignRun, ok bool) {
	tr.begin("setup")
	tr.begin("supervisor.new")
	srv, err := supervisor.New(dir, 1)
	tr.end()
	if !e.checks.noErr(err, "supervisor.New") {
		tr.end()
		return c, false
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		e.checks.noErr(srv.Shutdown(ctx), "Server.Shutdown")
	}()
	tr.begin("supervisor.submit")
	t := time.Now()
	id, err := srv.Submit(supervisor.Spec{IDs: suiteIDs(), Seed: seed, Scale: suiteScale, Workers: e.workers})
	c.submitS = secondsSince(t)
	tr.end()
	tr.end()
	if !e.checks.noErr(err, "Server.Submit") {
		return c, false
	}

	runtime.GC()
	r0 := readRT()
	tr.begin("window")
	tr.profile()
	srv.Wait(id)
	tr.unprofile()
	tr.end()
	c.window = diff(r0, readRT())

	tr.begin("check")
	st, found := srv.Status(id)
	ok = e.checks.check(found && st.Status == supervisor.StatusDone && st.CompletedRuns == st.TotalRuns,
		"campaign seed %d ended %q with %d of %d runs: %s", seed, st.Status, st.CompletedRuns, st.TotalRuns, st.Error)
	for _, r := range st.Runs {
		e.checks.check(r.Status == "done", "campaign seed %d run %s ended %q", seed, r.ID, r.Status)
		c.runS = append(c.runS, float64(r.ElapsedUS)/1e6)
	}
	tr.end()
	if !ok {
		return c, false
	}

	var saves, loads []float64
	for i := 0; i < suiteReps; i++ {
		t := time.Now()
		tr.begin("save")
		b, status, found := srv.ArchiveBytes(id)
		tr.end()
		saves = append(saves, secondsSince(t))
		if !e.checks.check(found && status == supervisor.StatusDone, "ArchiveBytes: campaign seed %d status %q", seed, status) {
			return c, false
		}
		t = time.Now()
		tr.begin("load")
		a, err := archive.Decode(b)
		tr.end()
		loads = append(loads, secondsSince(t))
		if !e.checks.noErr(err, "archive.Decode") {
			return c, false
		}
		c.doc, c.archive = b, a
	}
	c.saveS, c.loadS = minOf(saves), minOf(loads)

	tr.begin("check")
	e.checks.check(bytes.Equal(c.archive.Encode(), c.doc), "campaign seed %d archive does not re-encode to identical bytes", seed)
	tr.end()
	return c, true
}

// claimsPassed counts the claims table's PASS verdicts. It is a
// simulated statistic, reported but never checked: at small scales the
// verdicts depend on the seed.
func claimsPassed(a *archive.Archive) float64 {
	var n float64
	for _, x := range a.Experiments {
		for _, r := range x.Results {
			if r.Name == "claims" && strings.HasSuffix(r.Key, ".Verdict") && r.Str == "PASS" {
				n++
			}
		}
	}
	return n
}
