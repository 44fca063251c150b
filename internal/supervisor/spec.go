package supervisor

import (
	"time"

	"spider/internal/expt"
)

// Spec is one campaign submission: which experiments to run and at what
// options. It is the JSON body of POST /campaigns and the persisted
// identity of a campaign in the store.
type Spec struct {
	// IDs is an experiment-id spec: a single id, a comma-separated
	// list, or "all" (expt.ResolveIDs grammar).
	IDs string `json:"ids"`
	// Seed drives every random stream (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Scale in (0,1] shrinks durations and trial counts (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Chaos selects the fault profile or timeline for the chaos and
	// city/metro experiments (empty = each experiment's default).
	Chaos string `json:"chaos,omitempty"`
	// Workers bounds the sweep fan-out inside each experiment
	// (0 = GOMAXPROCS). Never affects results.
	Workers int `json:"workers,omitempty"`
	// Shards bounds concurrent city tiles in the sharded experiments
	// (0/1 = sequential). Never affects results.
	Shards int `json:"shards,omitempty"`
	// JoinSpreadMS staggers client admission in the city/metro
	// experiments over this many simulated milliseconds (0 = legacy t=0
	// join storm); JoinRamp shapes the offsets ("uniform" or "exp").
	// Unlike Workers/Shards these change simulated bytes, so they fold
	// into the campaign fingerprint when set.
	JoinSpreadMS int    `json:"join_spread_ms,omitempty"`
	JoinRamp     string `json:"join_ramp,omitempty"`
}

// normalize fills defaults so a stored spec re-resolves identically.
func (sp Spec) normalize() Spec {
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Scale == 0 {
		sp.Scale = 1
	}
	return sp
}

// resolve validates the spec with the same expt.Options.Validate the
// CLI applies to its flags — all of it before any experiment runs, so a
// bad spec bounces the submission instead of failing the campaign
// midway — and returns the resolved id list, the experiment options,
// and the campaign fingerprint (expt.CampaignFP, which cmd/spider-exp
// also keys its -resume state on).
func (sp Spec) resolve() (ids []string, opts expt.Options, fp string, err error) {
	sp = sp.normalize()
	ids, err = expt.ResolveIDs(sp.IDs)
	if err != nil {
		return nil, opts, "", err
	}
	opts = expt.Options{Seed: sp.Seed, Scale: sp.Scale, Workers: sp.Workers, Chaos: sp.Chaos, Shards: sp.Shards,
		JoinSpread: time.Duration(sp.JoinSpreadMS) * time.Millisecond, JoinRamp: sp.JoinRamp}
	if err := opts.Validate(); err != nil {
		return nil, expt.Options{}, "", err
	}
	return ids, opts, expt.CampaignFP(opts, ids), nil
}
