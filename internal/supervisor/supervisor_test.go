package supervisor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spider/internal/expt"
	"spider/internal/obs"
)

// cliArchiveBytes replicates cmd/spider-exp's -archive-out path in
// process: sequential experiments in id order, each appended to one
// archive document. The supervisor's served bytes must equal these — a
// byte-level contract the supervisor-smoke CI job re-proves against the
// real binary.
func cliArchiveBytes(t *testing.T, sp Spec) []byte {
	t.Helper()
	ids, opts, _, err := sp.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	arch := expt.NewArchive(opts)
	for _, id := range ids {
		if _, err := expt.RunArchived(arch, id, opts); err != nil {
			t.Fatalf("RunArchived(%s): %v", id, err)
		}
	}
	return arch.Encode()
}

func postJSON(t *testing.T, url, body string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, b
}

// waitStatus polls the plain status endpoint until the campaign reaches
// a terminal state.
func waitStatus(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		code, b := getBody(t, base+"/campaigns/"+id+"/status")
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		switch st := strings.TrimSpace(string(b)); st {
		case StatusDone, StatusFailed, StatusCancelled:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish in time", id)
	return ""
}

func TestCampaignEndToEnd(t *testing.T) {
	s, err := New(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}

	sp := Spec{IDs: "fig2,fig3", Seed: 3, Scale: 0.2}
	code, out := postJSON(t, ts.URL+"/campaigns", `{"ids":"fig2,fig3","seed":3,"scale":0.2}`)
	if code != http.StatusCreated || out["id"] == "" {
		t.Fatalf("submit: HTTP %d %v", code, out)
	}
	id := out["id"]

	if st := waitStatus(t, ts.URL, id); st != StatusDone {
		cs, _ := s.Status(id)
		t.Fatalf("campaign ended %s (%s)", st, cs.Error)
	}

	// Served archive == the CLI's bytes for the same flags.
	code, got := getBody(t, ts.URL+"/campaigns/"+id+"/archive")
	if code != http.StatusOK {
		t.Fatalf("archive: HTTP %d: %s", code, got)
	}
	if want := cliArchiveBytes(t, sp); !bytes.Equal(got, want) {
		t.Fatalf("served archive differs from CLI archive (%d vs %d bytes)", len(got), len(want))
	}

	// Status JSON carries per-run progress.
	code, b := getBody(t, ts.URL+"/campaigns/"+id)
	if code != http.StatusOK {
		t.Fatalf("status JSON: HTTP %d", code)
	}
	var cs CampaignStatus
	if err := json.Unmarshal(b, &cs); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	if cs.CompletedRuns != 2 || cs.TotalRuns != 2 || len(cs.Runs) != 2 || cs.Runs[0].Status != "done" {
		t.Fatalf("status = %+v", cs)
	}

	// The live scrape parses under the strict exposition checker and
	// reports the completed runs.
	code, m := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if err := obs.CheckExposition(m); err != nil {
		t.Fatalf("metrics scrape invalid: %v\n%s", err, m)
	}
	if !strings.Contains(string(m), "supervisor_runs_completed_total 2") {
		t.Fatalf("metrics missing run counter:\n%s", m)
	}
}

func TestSpecValidationFailsFast(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := []string{
		`{"ids":"fig2,nope"}`,                 // unknown experiment
		`{"ids":"fig2,fig2"}`,                 // duplicate
		`{"ids":"all,fig2"}`,                  // all mixed with explicit
		`{"ids":""}`,                          // empty
		`{"ids":"fig2","scale":2}`,            // scale out of range
		`{"ids":"fig2","scale":-0.5}`,         // negative scale
		`{"ids":"fig2","workers":-1}`,         // negative workers
		`{"ids":"fig2","shards":-1}`,          // negative shards
		`{"ids":"fig2","chaos":"no!"}`,        // unresolvable chaos spec
		`{"ids":"city","join_spread_ms":-5}`,  // negative admission spread
		`{"ids":"city","join_ramp":"zigzag"}`, // unknown admission ramp
		`{"ids":"fig2","bogus":true}`,         // unknown spec field
		`not json`,
	}
	for _, body := range bad {
		if code, out := postJSON(t, ts.URL+"/campaigns", body); code != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d %v, want 400", body, code, out)
		}
	}
	if len(s.List()) != 0 {
		t.Fatalf("rejected submissions registered campaigns: %v", s.List())
	}

	// Unknown campaign ids 404 everywhere.
	for _, p := range []string{"/campaigns/cXXXXXX", "/campaigns/cXXXXXX/status", "/campaigns/cXXXXXX/archive"} {
		if code, _ := getBody(t, ts.URL+p); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", p, code)
		}
	}
}

// TestNonFiniteResultCampaign runs a campaign whose ablation-energy
// table holds +Inf (a configuration that delivered no bytes): it must
// finish and serve the CLI's archive bytes, not fail persisting.
func TestNonFiniteResultCampaign(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sp := Spec{IDs: "fig2,ablation-energy", Seed: 20, Scale: 0.125}
	id, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitStatus(t, ts.URL, id); st != StatusDone {
		cs, _ := s.Status(id)
		t.Fatalf("campaign ended %s (%s)", st, cs.Error)
	}
	code, got := getBody(t, ts.URL+"/campaigns/"+id+"/archive")
	if code != http.StatusOK {
		t.Fatalf("archive: HTTP %d: %s", code, got)
	}
	if want := cliArchiveBytes(t, sp); !bytes.Equal(got, want) {
		t.Fatalf("served archive differs from CLI archive (%d vs %d bytes)", len(got), len(want))
	}
	if !bytes.Contains(got, []byte(`"+Inf"`)) {
		t.Fatal("archive holds no +Inf cell; the regression is not exercised")
	}
}

// TestKillRestartResume is the crash-resume contract: a supervisor that
// dies mid-campaign (here: drained after the first run, state left as
// "running" on disk — the CI job does it with a real SIGKILL) must
// resume the campaign on restart and serve an archive byte-identical
// to an uninterrupted run.
func TestKillRestartResume(t *testing.T) {
	dir := t.TempDir()
	sp := Spec{IDs: "fig2,fig3,fig4", Seed: 5, Scale: 0.2}
	want := cliArchiveBytes(t, sp)

	s1, err := New(dir, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id, err := s1.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait for the first run to complete, then drain: the runner stops
	// between runs and the on-disk state stays resumable.
	deadline := time.Now().Add(time.Minute)
	for {
		cs, ok := s1.Status(id)
		if !ok {
			t.Fatal("campaign vanished")
		}
		if cs.CompletedRuns >= 1 || cs.Status != StatusRunning && cs.Status != StatusPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first run did not complete in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// A fresh process over the same store resumes the campaign.
	s2, err := New(dir, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	if !s2.Wait(id) {
		t.Fatalf("campaign %s not adopted on restart", id)
	}
	cs, _ := s2.Status(id)
	if cs.Status != StatusDone {
		t.Fatalf("resumed campaign ended %s (%s)", cs.Status, cs.Error)
	}
	got, _, _ := s2.ArchiveBytes(id)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed archive differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestConcurrentCampaignsDeterminism pins the isolation claim: three
// campaigns executing concurrently (including two identical specs)
// produce archives byte-identical to sequential, single-campaign runs
// of the same specs.
func TestConcurrentCampaignsDeterminism(t *testing.T) {
	specs := []Spec{
		{IDs: "fig2,fig3", Seed: 11, Scale: 0.2},
		{IDs: "fig3,fig4", Seed: 12, Scale: 0.2},
		{IDs: "fig2,fig3", Seed: 11, Scale: 0.2}, // duplicate of the first
	}
	want := make([][]byte, len(specs))
	for i, sp := range specs {
		want[i] = cliArchiveBytes(t, sp)
	}

	s, err := New(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ids := make([]string, len(specs))
	for i, sp := range specs {
		if ids[i], err = s.Submit(sp); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		s.Wait(id)
		cs, _ := s.Status(id)
		if cs.Status != StatusDone {
			t.Fatalf("campaign %d ended %s (%s)", i, cs.Status, cs.Error)
		}
		got, _, _ := s.ArchiveBytes(id)
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("campaign %d: concurrent archive differs from sequential reference", i)
		}
	}
	if !bytes.Equal(want[0], want[2]) {
		t.Fatal("identical specs produced different references (harness bug)")
	}
}

func TestCancelAndArchiveGating(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(Spec{IDs: "fig2,fig3,fig4,table3", Seed: 2, Scale: 0.2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	code, out := postJSON(t, ts.URL+"/campaigns/"+id+"/cancel", "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d %v", code, out)
	}
	s.Wait(id)
	cs, _ := s.Status(id)
	switch cs.Status {
	case StatusCancelled:
		// The archive endpoint refuses a partial document.
		if code, b := getBody(t, ts.URL+"/campaigns/"+id+"/archive"); code != http.StatusConflict {
			t.Fatalf("archive of cancelled campaign: HTTP %d: %s", code, b)
		}
	case StatusDone:
		// Every run beat the cancellation — legal, nothing to assert.
	default:
		t.Fatalf("cancelled campaign ended %s (%s)", cs.Status, cs.Error)
	}

	// Cancelling a terminal campaign reports its state, not "cancelling".
	if st, ok := s.Cancel(id); !ok || st == "cancelling" {
		t.Fatalf("Cancel(terminal) = %q, %v", st, ok)
	}
}

// TestDrainRejectsSubmissions pins the graceful-shutdown contract for
// the submission path.
func TestDrainRejectsSubmissions(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := s.Submit(Spec{IDs: "fig2"}); err == nil {
		t.Fatal("drained supervisor accepted a campaign")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := postJSON(t, ts.URL+"/campaigns", `{"ids":"fig2"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}
}

func TestSpecFingerprintMatchesCLI(t *testing.T) {
	// The supervisor and spider-exp's -resume must agree on campaign
	// identity: same formula, same inputs.
	sp := Spec{IDs: "fig3,fig2", Seed: 9, Scale: 0.5, Chaos: "mild"}
	ids, opts, fp, err := sp.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	wantIDs := []string{"fig3", "fig2"}
	if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
		t.Fatalf("ids = %v, want %v", ids, wantIDs)
	}
	if opts.Seed != 9 || opts.Scale != 0.5 || opts.Chaos != "mild" {
		t.Fatalf("opts = %+v", opts)
	}
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	// Workers and shards must not move the fingerprint (results are
	// invariant in them).
	sp2 := sp
	sp2.Workers, sp2.Shards = 7, 4
	if _, _, fp2, _ := sp2.resolve(); fp2 != fp {
		t.Fatalf("fingerprint moved with workers/shards: %s vs %s", fp, fp2)
	}
	// One formula: the supervisor's fingerprint is expt.CampaignFP, the
	// one spider-exp keys its -resume state on.
	if want := expt.CampaignFP(opts, ids); fp != want {
		t.Fatalf("fingerprint %s, expt.CampaignFP %s", fp, want)
	}
	// Stored campaigns keep their identity: these values predate the
	// shared formula.
	for _, tc := range []struct {
		spec string
		want string
	}{
		{`{"ids":"fig2,table2","seed":3,"scale":0.2}`, "155242b6c9d4d3d7"},
		{`{"ids":"metro","seed":3,"scale":0.05,"join_spread_ms":5000,"join_ramp":"exp"}`, "bb8979734323ae38"},
	} {
		var sp Spec
		if err := json.Unmarshal([]byte(tc.spec), &sp); err != nil {
			t.Fatal(err)
		}
		if _, _, fp, err := sp.resolve(); err != nil || fp != tc.want {
			t.Errorf("%s: fingerprint %s (err %v), want %s", tc.spec, fp, err, tc.want)
		}
	}
}
