package expt

import (
	"math"
	"strings"
	"testing"
	"time"

	"spider/internal/archive"
)

// TestResultBuilderArchivesNonFinite: JSON has no non-finite numbers,
// so a table cell or figure point that renders as ±Inf or NaN must
// archive as a string, and the archive must encode and decode.
func TestResultBuilderArchivesNonFinite(t *testing.T) {
	rb := resultBuilder{expID: "e"}
	rb.table(Table{ID: "t", Columns: []string{"config", "J/MB", "other"}, Rows: [][]string{
		{"a", "+Inf", "-Inf"},
		{"b", "NaN", "12.5 KB/s"},
	}})
	rb.figure(Figure{ID: "f", Series: []Series{{Name: "s", Points: []Point{{X: 1, Y: math.Inf(1)}}}}})
	want := map[string]string{"a.J/MB": "+Inf", "a.other": "-Inf", "b.J/MB": "NaN", "s[0].y": "+Inf"}
	for _, r := range rb.out {
		if s, ok := want[r.Key]; ok {
			if r.Num != nil || r.Str != s {
				t.Errorf("%s archived as num=%v str=%q, want str %q", r.Key, r.Num, r.Str, s)
			}
			delete(want, r.Key)
		} else if r.Num == nil {
			t.Errorf("finite %s archived as string %q", r.Key, r.Str)
		}
	}
	if len(want) != 0 {
		t.Fatalf("rows missing: %v", want)
	}
	a := archive.New(1, "fp")
	a.Experiments = append(a.Experiments, archive.Experiment{ID: "e", Name: "t", Results: rb.out})
	if _, err := archive.Decode(a.Encode()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// TestAblationEnergyInfArchives is the regression for a configuration
// that delivers no bytes: its energy per MB renders as +Inf, which once
// made archive.Encode panic for this seed and scale.
func TestAblationEnergyInfArchives(t *testing.T) {
	o := Options{Seed: 20, Scale: 0.125}
	a := NewArchive(o)
	if _, err := RunArchived(a, "ablation-energy", o); err != nil {
		t.Fatal(err)
	}
	got, err := archive.Decode(a.Encode())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	inf := false
	for _, r := range got.Experiments[0].Results {
		inf = inf || r.Str == "+Inf"
	}
	if !inf {
		t.Fatal("no +Inf cell archived; the regression is not exercised")
	}
}

func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{Scale: 1},
		{Seed: 7, Scale: 0.05, Workers: 4, Shards: 2, Chaos: "mild"},
		{Scale: 0.5, JoinSpread: time.Second, JoinRamp: "exp"},
		{Scale: 0.5, JoinRamp: "uniform"},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	bad := map[string]Options{
		"scale":       {Scale: 2},
		"scale ":      {Scale: 0},
		"scale  ":     {Scale: math.NaN()},
		"workers":     {Scale: 1, Workers: -1},
		"shards":      {Scale: 1, Shards: -1},
		"join spread": {Scale: 1, JoinSpread: -time.Second},
		"join ramp":   {Scale: 1, JoinRamp: "zigzag"},
		"chaos":       {Scale: 1, Chaos: "bogus"},
	}
	for want, o := range bad {
		err := o.Validate()
		if err == nil || !strings.Contains(err.Error(), strings.TrimSpace(want)) {
			t.Errorf("%+v: error %v, want one naming %q", o, err, strings.TrimSpace(want))
		}
	}
}
