package expt

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/fault"
	"spider/internal/metrics"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/shard"
)

func init() {
	register("city", func(o Options) (fmt.Stringer, error) { return CityScale(o) })
}

// CityScale runs the roadmap's infrastructure-density workload — a
// square-kilometer city of open APs with a vehicle fleet running the
// full Spider stack — on the sharded engine, and reports the fleet-wide
// outcome distributions. The result is byte-identical at any -shards
// value: shards only set how many tiles advance concurrently.
//
// Unlike the drive experiments this one exercises hundreds of
// *concurrent* drivers contending for airtime and DHCP servers, which
// is the regime the paper's per-client analysis abstracts away.
func CityScale(o Options) (Figure, error) {
	city, dur, err := cityRun(o, false)
	if err != nil {
		return Figure{}, err
	}
	return cityFigure("city", city, dur), nil
}

// cityTraceCap bounds each tile's trace ring when the archive path
// enables observability. Generous enough that city-scale runs at test
// scales never drop spans (a dropped span would make the archived span
// summary capacity-dependent).
const cityTraceCap = 1 << 15

// cityRun builds and advances the sharded city for the given options.
// withObs attaches per-tile observation bundles (the archive path needs
// the merged registries and trace-span summaries; the plain figure path
// does not pay for them).
func cityRun(o Options, withObs bool) (*shard.City, time.Duration, error) {
	o = o.withDefaults()
	spec := CitySpec(o.Seed, o.scaleN(1000, 60), o.scaleN(100, 10), 0, 0)
	dur := o.scaleDur(2*time.Minute, 15*time.Second)
	return runCity("city", spec, dur, o, withObs)
}

// runCity builds a city-style spec with the 3-channel multi-AP driver
// and advances it. Shared by the city and metro experiments so both
// archive through the exact same engine path.
func runCity(id string, spec scenario.CityGridSpec, dur time.Duration, o Options, withObs bool) (*shard.City, time.Duration, error) {
	var ob *CityObs
	if withObs {
		ob = &CityObs{TraceCap: cityTraceCap}
	}
	city, err := NewCity(spec, spiderConfig("3ch-multi"), o, ob)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", id, err)
	}
	if err := city.Run(dur); err != nil {
		return nil, 0, err
	}
	return city, dur, nil
}

// CitySpec returns the citygrid scenario at seed with numAPs APs and
// numClients vehicles. A positive areaW or areaH overrides its area.
func CitySpec(seed int64, numAPs, numClients int, areaW, areaH float64) scenario.CityGridSpec {
	spec := scenario.CityGrid(seed, numAPs, numClients)
	if areaW > 0 {
		spec.AreaW = areaW
	}
	if areaH > 0 {
		spec.AreaH = areaH
	}
	return spec
}

// CityObs sizes the per-tile observation bundles NewCity attaches: each
// tile's trace ring holds TraceCap events (0 = the obs default) and
// records only categories with a Filter prefix (empty = all).
type CityObs struct {
	TraceCap int
	Filter   []string
}

// NewCity builds a city-style spec on the sharded engine, ready to Run:
// the city radio profile, o's join admission, cfg on every client,
// o.Shards tile workers (0/1 = sequential), per-tile observation when ob
// is non-nil, and o.Chaos, which must name a fault profile (timeline
// scripts are single-drive only). The city and metro experiments and
// spider-sim's citygrid mode all build their cities here.
func NewCity(spec scenario.CityGridSpec, cfg core.Config, o Options, ob *CityObs) (*shard.City, error) {
	var fcfg fault.Config
	if o.Chaos != "" {
		var ok bool
		if fcfg, ok = fault.Profile(o.Chaos); !ok {
			return nil, fmt.Errorf("unknown chaos profile %q (timeline scripts are single-drive only)", o.Chaos)
		}
	}
	spec.Radio = radio.Defaults()
	spec.Radio.DataRateKbps = 24_000
	spec.JoinSpread, spec.JoinRamp = o.JoinSpread, o.JoinRamp
	city := shard.NewCity(spec, cfg, max(o.Shards, 1))
	if ob != nil {
		city.EnableObs(ob.TraceCap, ob.Filter...)
	}
	if o.Chaos != "" {
		city.ApplyChaos(fcfg)
	}
	return city, nil
}

// cityFigure renders a completed city-style run as the experiment's
// figure (the metro experiment reuses it under its own id).
func cityFigure(id string, city *shard.City, dur time.Duration) Figure {
	var goodput []float64
	var joinMS []float64
	for _, cl := range city.Clients() {
		goodput = append(goodput, cl.Rec.ThroughputKBps(dur))
		for _, j := range cl.Joins {
			if j.Success {
				joinMS = append(joinMS, float64(j.Elapsed)/float64(time.Millisecond))
			}
		}
	}

	return Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s-scale fleet, %s", id, city.Layout),
		XLabel: "percentile across clients (machinery series: metric index)",
		YLabel: "per-series units (KBps / ms / count)",
		Series: []Series{
			quantileSeries("goodput_KBps", goodput),
			quantileSeries("join_latency_ms", joinMS),
			{Name: "shard_machinery", Points: []Point{
				{X: 0, Y: float64(city.Layout.NTiles)},
				{X: 1, Y: float64(city.Migrations)},
				{X: 2, Y: float64(haloInjected(city))},
				{X: 3, Y: float64(city.TotalInjected())},
				{X: 4, Y: float64(city.InvariantsTotal())},
			}},
		},
	}
}

// quantileSeries renders a value set as percentile points (5% steps).
func quantileSeries(name string, vals []float64) Series {
	s := Series{Name: name}
	cdf := metrics.NewCDF(vals)
	if cdf.N() == 0 {
		return s
	}
	for p := 0; p <= 100; p += 5 {
		s.Points = append(s.Points, Point{X: float64(p), Y: cdf.Quantile(float64(p) / 100)})
	}
	return s
}

func haloInjected(c *shard.City) uint64 {
	var t uint64
	for _, tile := range c.Tiles {
		t += tile.World.Medium.Stats().HaloInjected
	}
	return t
}
