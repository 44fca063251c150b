package expt

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/fault"
	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/scenario"
	"spider/internal/usertrace"
)

func init() {
	register("table2", func(o Options) (fmt.Stringer, error) { return Table2(o), nil })
	register("table4", func(o Options) (fmt.Stringer, error) { return Table4(o), nil })
	register("fig10", func(o Options) (fmt.Stringer, error) { return Fig10(o), nil })
	register("fig13", func(o Options) (fmt.Stringer, error) { return Fig13(o), nil })
	register("fig14", func(o Options) (fmt.Stringer, error) { return Fig14(o), nil })
}

// SpiderConfig returns a driver configuration by name: the four Spider
// configurations of §4.1 (Table 2, Fig 10) plus the stock MadWiFi
// baseline. Multi-channel rows use the paper's static 200 ms schedule
// on channels 1, 6, 11.
func SpiderConfig(name string) (core.Config, error) {
	one := []core.ChannelSlice{{Channel: 1}}
	three := core.EqualSchedule(200*time.Millisecond, 1, 6, 11)
	switch name {
	case "ch1-multi":
		return core.SpiderDefaults(core.SingleChannelMultiAP, one), nil
	case "ch1-single":
		// §4.1 configuration 1 "mimics off-the-shelf Wi-Fi on a single
		// channel": stock timers, no lease cache, no history — pinned to
		// channel 1. This is the baseline the 4× claim compares against.
		return core.StockDefaults(one), nil
	case "3ch-multi":
		return core.SpiderDefaults(core.MultiChannelMultiAP, three), nil
	case "3ch-single":
		return core.SpiderDefaults(core.MultiChannelSingleAP, three), nil
	case "stock":
		// The unmodified MadWiFi baseline roams over the occupied
		// orthogonal channels with stock timers and no optimizations.
		return core.StockDefaults(three), nil
	}
	return core.Config{}, fmt.Errorf("unknown config %q (want ch1-multi, ch1-single, 3ch-multi, 3ch-single or stock)", name)
}

// spiderConfig is SpiderConfig for the experiments' literal names.
func spiderConfig(name string) core.Config {
	cfg, err := SpiderConfig(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

// DriveSpec returns the named drive scenario ("amherst" or "boston")
// at seed. A positive speedMS or numAPs overrides the scenario's own.
func DriveSpec(city string, seed int64, speedMS float64, numAPs int) (scenario.DriveSpec, error) {
	var spec scenario.DriveSpec
	switch city {
	case "amherst":
		spec = scenario.AmherstDrive(seed)
	case "boston":
		spec = scenario.BostonDrive(seed)
	default:
		return spec, fmt.Errorf("unknown drive city %q (want amherst or boston)", city)
	}
	if speedMS > 0 {
		spec.SpeedMS = speedMS
	}
	if numAPs > 0 {
		spec.NumAPs = numAPs
	}
	return spec, nil
}

// Drive is one single-client drive, built and ready to Run.
type Drive struct {
	World  *scenario.World
	Client *scenario.Client
	// Chaos is the client's fault injector and invariant checker; nil
	// when the drive was built without a chaos spec.
	Chaos *scenario.Chaos
}

// NewDrive builds the single-client drive behind every drive experiment
// and spider-sim's drive mode. o may be nil. A non-empty chaos spec — a
// profile name or a fault timeline script (fault.Resolve) — wraps the
// client in a fault injector and invariant checker.
func NewDrive(spec scenario.DriveSpec, cfg core.Config, o *obs.Obs, chaos string) (Drive, error) {
	if chaos == "" {
		return newDrive(spec, cfg, o, nil, nil), nil
	}
	fcfg, tl, _, err := fault.Resolve(chaos)
	if err != nil {
		return Drive{}, err
	}
	return newDrive(spec, cfg, o, &fcfg, tl), nil
}

// newDrive gives spec the drive radio profile and builds it. o is
// attached before the client joins, so the driver histograms and the
// injector's episode spans are wired from the start. A non-nil fcfg
// applies chaos (even an all-zero one, which only adds the checker); a
// timeline's episodes are scheduled and the liveness probe started.
func newDrive(spec scenario.DriveSpec, cfg core.Config, o *obs.Obs, fcfg *fault.Config, tl fault.Timeline) Drive {
	spec.Radio = driveRadio()
	w, m := spec.Build()
	w.AttachObs(o)
	d := Drive{World: w, Client: w.AddClient(cfg, m)}
	if fcfg != nil {
		d.Chaos = scenario.ApplyChaos(w, d.Client, *fcfg)
		if len(tl) > 0 {
			d.Chaos.Injector.ScheduleTimeline(tl)
			d.Chaos.Checker.StartLiveness(5 * time.Second)
		}
	}
	return d
}

// driveClient runs one clean drive in the named city with the config
// and returns the measured client and the run duration.
func driveClient(o Options, city string, cfg core.Config) (*scenario.Client, time.Duration) {
	spec, err := DriveSpec(city, o.Seed, 0, 0)
	if err != nil {
		panic(err)
	}
	d := newDrive(spec, cfg, o.Obs, nil, nil)
	dur := o.driveDur()
	d.World.Run(dur)
	return d.Client, dur
}

// Table2 reproduces Table 2: average throughput and connectivity for the
// four Spider configurations plus the Boston single-AP run and the stock
// driver. The expected ordering: single-channel multi-AP wins throughput
// by ~4× over its single-AP counterpart, multi-channel multi-AP wins
// connectivity, and stock trails everything.
func Table2(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "table2",
		Title:   "Avg. throughput and connectivity for Spider configurations",
		Columns: []string{"(Config) Parameters", "Throughput", "Connectivity"},
	}
	rows := []struct {
		label string
		cfg   string
		city  string
	}{
		{"(1) Channel 1, Multi-AP", "ch1-multi", "amherst"},
		{"(2) Channel 1, Single-AP", "ch1-single", "amherst"},
		{"(3) 3 channels, Multi-AP", "3ch-multi", "amherst"},
		{"(4) 3 channels, Single-AP", "3ch-single", "amherst"},
		{"(2) Channel 6, single-AP (Boston)", "ch6-single-boston", "boston"},
		{"MadWiFi driver", "stock", "amherst"},
	}
	tbl.Rows = fanOut(o, len(rows), func(i int) []string {
		r := rows[i]
		var cfg core.Config
		if r.cfg == "ch6-single-boston" {
			cfg = core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
		} else {
			cfg = spiderConfig(r.cfg)
		}
		c, dur := driveClient(o, r.city, cfg)
		return []string{
			r.label,
			metrics.FormatKBps(c.Rec.ThroughputKBps(dur)),
			metrics.FormatPct(c.Rec.Connectivity(dur)),
		}
	})
	return tbl
}

// Table4 reproduces Table 4: throughput and connectivity as the number
// of equally scheduled channels varies (multi-AP throughout). Expected
// shape: one channel maximizes throughput, three maximize connectivity.
func Table4(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "table4",
		Title:   "Throughput and connectivity vs number of channels (multi-AP)",
		Columns: []string{"Parameters", "Throughput", "Connectivity"},
	}
	rows := []struct {
		label string
		sched []core.ChannelSlice
	}{
		{"1 channel", []core.ChannelSlice{{Channel: 1}}},
		{"2 channels (equal schedule)", core.EqualSchedule(200*time.Millisecond, 1, 6)},
		{"3 channels (equal schedule)", core.EqualSchedule(200*time.Millisecond, 1, 6, 11)},
	}
	tbl.Rows = fanOut(o, len(rows), func(i int) []string {
		r := rows[i]
		mode := core.MultiChannelMultiAP
		if len(r.sched) == 1 {
			mode = core.SingleChannelMultiAP
		}
		c, dur := driveClient(o, "amherst", core.SpiderDefaults(mode, r.sched))
		return []string{
			r.label,
			metrics.FormatKBps(c.Rec.ThroughputKBps(dur)),
			metrics.FormatPct(c.Rec.Connectivity(dur)),
		}
	})
	return tbl
}

// Fig10Result bundles the three CDF panels of Figure 10.
type Fig10Result struct {
	Connections Figure // 10a: connection duration CDFs
	Disruptions Figure // 10b: disruption duration CDFs
	Bandwidth   Figure // 10c: instantaneous bandwidth CDFs
}

// String renders all three panels.
func (r Fig10Result) String() string {
	return r.Connections.String() + r.Disruptions.String() + r.Bandwidth.String()
}

// Fig10 reproduces Figures 10a–c for the four Spider configurations.
func Fig10(o Options) Fig10Result {
	o = o.withDefaults()
	res := Fig10Result{
		Connections: Figure{ID: "fig10a", Title: "CDF of connection duration",
			XLabel: "connection duration (s)", YLabel: "cumulative fraction"},
		Disruptions: Figure{ID: "fig10b", Title: "CDF of connectivity disruptions",
			XLabel: "disruption duration (s)", YLabel: "cumulative fraction"},
		Bandwidth: Figure{ID: "fig10c", Title: "CDF of instantaneous bandwidth",
			XLabel: "bandwidth (KBps)", YLabel: "cumulative fraction"},
	}
	rows := []struct{ label, cfg string }{
		{"single AP (ch1)", "ch1-single"},
		{"multiple APs (ch1)", "ch1-multi"},
		{"single AP (multi-channel)", "3ch-single"},
		{"multiple APs (multi-channel)", "3ch-multi"},
	}
	type panels struct{ conn, gap, bw Series }
	got := fanOut(o, len(rows), func(i int) panels {
		r := rows[i]
		c, dur := driveClient(o, "amherst", spiderConfig(r.cfg))
		return panels{
			conn: cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Connections(dur))),
			gap:  cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Disruptions(dur))),
			bw:   cdfSeries(r.label, metrics.NewCDF(c.Rec.InstantaneousKBps(dur))),
		}
	})
	for _, p := range got {
		res.Connections.Series = append(res.Connections.Series, p.conn)
		res.Disruptions.Series = append(res.Disruptions.Series, p.gap)
		res.Bandwidth.Series = append(res.Bandwidth.Series, p.bw)
	}
	return res
}

func cdfSeries(name string, c metrics.CDF) Series {
	s := Series{Name: name}
	for _, p := range c.Points(20) {
		s.Points = append(s.Points, Point{X: p.X, Y: p.P})
	}
	return s
}

// Fig13 reproduces Figure 13: the mesh users' TCP connection-duration
// CDF against the connection durations Spider sustains in its
// single-channel and multi-channel multi-AP modes. The claim: Spider's
// connections are long enough to carry the users' flows.
func Fig13(o Options) Figure {
	o = o.withDefaults()
	fig := Figure{
		ID:     "fig13",
		Title:  "Connection lengths: wireless users vs Spider",
		XLabel: "connection duration (s)",
		YLabel: "cumulative fraction of connections",
	}
	tr := usertrace.Generate(usertrace.DefaultSpec(o.Seed))
	fig.Series = append(fig.Series, cdfSeries("users connection duration",
		metrics.DurationsCDF(tr.Durations())))
	rows := []struct{ label, cfg string }{
		{"multiple APs (ch1)", "ch1-multi"},
		{"multiple APs (multi-channel)", "3ch-multi"},
	}
	fig.Series = append(fig.Series, fanOut(o, len(rows), func(i int) Series {
		r := rows[i]
		c, dur := driveClient(o, "amherst", spiderConfig(r.cfg))
		return cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Connections(dur)))
	})...)
	return fig
}

// Fig14 reproduces Figure 14: the users' inter-connection gap CDF
// against Spider's disruption lengths. The claim: multi-channel multi-AP
// Spider's disruptions are comparable to the gaps users already sustain.
func Fig14(o Options) Figure {
	o = o.withDefaults()
	fig := Figure{
		ID:     "fig14",
		Title:  "Disruption lengths: wireless users vs Spider",
		XLabel: "disruption length (s)",
		YLabel: "cumulative fraction of disruptions",
	}
	tr := usertrace.Generate(usertrace.DefaultSpec(o.Seed))
	fig.Series = append(fig.Series, cdfSeries("user inter-connection",
		metrics.DurationsCDF(tr.InterConnectionGaps())))
	rows := []struct{ label, cfg string }{
		{"multiple APs (ch1)", "ch1-multi"},
		{"multiple APs (multi-channel)", "3ch-multi"},
	}
	fig.Series = append(fig.Series, fanOut(o, len(rows), func(i int) Series {
		r := rows[i]
		c, dur := driveClient(o, "amherst", spiderConfig(r.cfg))
		return cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Disruptions(dur)))
	})...)
	return fig
}
