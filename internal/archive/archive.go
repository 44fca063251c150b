// Package archive implements the linked measurement archive: one
// versioned document that captures a full run — scenario plan identity,
// seed and config fingerprint, per-client ledgers, fault episodes,
// metric snapshots, and trace-span summaries — in the style of the
// websteps data format, where every sub-measurement carries a unique ID
// so any archive unpacks into flat tabular observations.
//
// The format is the repo's regression currency: two runs of the same
// scenario at the same seed must produce byte-identical archives at any
// worker or shard count, and cmd/spider-diff turns that property into a
// CI gate (byte-level diffing) plus a cross-seed statistical comparator.
//
// Determinism rules:
//
//   - Sub-measurement IDs derive from plan identity (seed, config
//     fingerprint, section name, index) via the same splitmix64
//     discipline as sweep.TaskSeed — never from wall-clock time or
//     allocation order.
//   - Encode is canonical: fixed field order (struct order), tab
//     indentation, no HTML escaping, exactly one trailing newline.
//     decode(encode(a)) == a and encode(decode(b)) is byte-stable.
//   - Every list is sorted by a plan-derived key (clients by MAC,
//     metrics by name, fault classes in canonical class order) with
//     explicit tie-breaks, so archive content is independent of
//     scheduling.
package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Format and Version identify the data format. Versioning rules (also
// in docs/ARCHIVE.md): any field addition, removal, rename, or change
// of meaning bumps Version; a decoder accepts exactly the versions it
// knows. Unknown fields are decode errors, so a v2 document can never
// silently load as v1.
const (
	Format  = "spider-archive"
	Version = 1
)

// Archive is one run's archival document.
type Archive struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// RunID is the document's own sub-measurement ID: a fingerprint of
	// (format, version, seed, config fingerprint). Two runs of the same
	// plan share a RunID; their content must then be byte-identical.
	RunID string `json:"run_id"`
	Seed  int64  `json:"seed"`
	// ConfigFP fingerprints everything that may legitimately change
	// results (scale, chaos spec, driver config, scenario knobs) and
	// nothing that may not (worker count, shard count, output paths).
	ConfigFP    string       `json:"config_fp"`
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one experiment's (or drive's) measurements within the
// run.
type Experiment struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Chaos names the fault profile or timeline under which the
	// experiment ran (empty = clean).
	Chaos    string         `json:"chaos,omitempty"`
	Scenario *Scenario      `json:"scenario,omitempty"`
	Clients  []ClientLedger `json:"clients,omitempty"`
	Faults   []FaultClass   `json:"faults,omitempty"`
	Metrics  []Metric       `json:"metrics,omitempty"`
	Spans    []SpanSummary  `json:"spans,omitempty"`
	Results  []Result       `json:"results,omitempty"`
}

// Scenario records the plan identity of the world the experiment ran
// in: the knobs that shaped it plus a fingerprint over the planned
// entities, so two archives can be compared only when they describe the
// same plan.
type Scenario struct {
	AreaWM     float64 `json:"area_w_m,omitempty"`
	AreaHM     float64 `json:"area_h_m,omitempty"`
	NumAPs     int     `json:"num_aps,omitempty"`
	NumClients int     `json:"num_clients,omitempty"`
	Layout     string  `json:"layout,omitempty"`
	// PlanFP fingerprints the planned AP and client identities
	// (positions, channels, routes) for city runs.
	PlanFP     string `json:"plan_fp,omitempty"`
	DurationUS int64  `json:"duration_us,omitempty"`
}

// Bin is one time-bin of a client's throughput ledger.
type Bin struct {
	Index int64 `json:"i"`
	Bytes int64 `json:"bytes"`
}

// Join is one join attempt from a client's ledger.
type Join struct {
	BSSID     string `json:"bssid"`
	OK        bool   `json:"ok"`
	ElapsedUS int64  `json:"elapsed_us"`
	AtUS      int64  `json:"at_us"`
}

// ClientLedger is one client's lifetime measurement record.
type ClientLedger struct {
	ID  string `json:"id"`
	MAC string `json:"mac"`
	// Throughput ledger: total plus the non-empty one-second bins.
	TotalBytes int64  `json:"total_bytes"`
	Bins       []Bin  `json:"bins,omitempty"`
	Joins      []Join `json:"joins,omitempty"`
	// Driver counters (the stable subset the experiments report).
	Switches       uint64 `json:"switches"`
	AssocAttempts  uint64 `json:"assoc_attempts"`
	AssocSuccesses uint64 `json:"assoc_successes"`
	JoinSuccesses  uint64 `json:"join_successes"`
	DHCPFailures   uint64 `json:"dhcp_failures"`
	SoftHandoffs   uint64 `json:"soft_handoffs"`
	Blacklisted    uint64 `json:"blacklisted"`
	// TCP sender totals across every flow the client ever ran.
	SegmentsSent uint64 `json:"segments_sent"`
	RetxSegments uint64 `json:"retx_segments"`
	BytesAcked   uint64 `json:"bytes_acked"`
	// Invariants is the lifetime invariant-violation count.
	Invariants uint64 `json:"invariants"`
}

// FaultClass is one fault class's episode ledger.
type FaultClass struct {
	ID         string `json:"id"`
	Class      string `json:"class"`
	Injected   uint64 `json:"injected"`
	Skipped    uint64 `json:"skipped"`
	Recovered  uint64 `json:"recovered"`
	TTRTotalUS int64  `json:"ttr_total_us"`
	TTRMaxUS   int64  `json:"ttr_max_us"`
}

// Metric is one exported metric point (a flattened obs.MetricPoint).
type Metric struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Value for counters/gauges; Sum/Count/Buckets for histograms.
	Value   float64   `json:"value"`
	Sum     float64   `json:"sum,omitempty"`
	Count   uint64    `json:"count,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
}

// SpanSummary aggregates the trace spans of one (category, name) pair.
type SpanSummary struct {
	ID         string `json:"id"`
	Cat        string `json:"cat"`
	Name       string `json:"name"`
	Count      uint64 `json:"count"`
	TotalDurUS int64  `json:"total_dur_us"`
}

// Result is one cell of a rendered experiment result: a figure point or
// a table cell, keyed so cross-archive comparison can align rows.
type Result struct {
	ID   string `json:"id"`
	Name string `json:"name"` // figure/table id, e.g. "table2", "fig10a"
	Key  string `json:"key"`  // "series=<s>/x=<x>" or "row=<r>/col=<c>"
	// Num is the numeric observation when the cell parses as one (figure
	// Y values always do); Str keeps the verbatim cell text otherwise.
	Num *float64 `json:"num,omitempty"`
	Str string   `json:"str,omitempty"`
}

// Encode renders the archive in canonical form: struct field order, tab
// indentation, no HTML escaping, one trailing newline. This is the byte
// representation the golden tests and spider-diff's byte mode compare.
func (a *Archive) Encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "\t")
	if err := enc.Encode(a); err != nil {
		// Archive fields are plain data, so the one value Marshal rejects
		// is a non-finite float. Builders store those as strings (see
		// expt's resultBuilder); reaching this is a builder bug.
		panic(fmt.Sprintf("archive: encode: %v", err))
	}
	return buf.Bytes()
}

// Decode parses an archive document, rejecting unknown fields, trailing
// data, wrong formats and unsupported versions. It never panics on
// arbitrary input (the fuzz target's contract).
func Decode(b []byte) (*Archive, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var a Archive
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("archive: decode: %w", err)
	}
	// Anything after the document — well-formed or not — is a
	// corruption, not an extension: only clean EOF may follow.
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("archive: decode: trailing data after document")
	}
	if a.Format != Format {
		return nil, fmt.Errorf("archive: format %q, want %q", a.Format, Format)
	}
	if a.Version != Version {
		return nil, fmt.Errorf("archive: version %d unsupported (decoder knows %d)", a.Version, Version)
	}
	return &a, nil
}
