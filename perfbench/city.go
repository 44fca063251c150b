package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"

	"spider/internal/core"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/shard"
)

// cityConfig is the driver every city workload runs: Spider's
// multi-channel multi-AP mode on a 3-channel 200 ms schedule.
func cityConfig() core.Config {
	return core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
}

// citySpec is a city of the given extent and population at 24 Mbps,
// vehicles at the default 10 m/s, the whole fleet admitted at t=0.
func citySpec(seed int64, areaM float64, aps, clients int) scenario.CityGridSpec {
	spec := scenario.CityGrid(seed, aps, clients)
	spec.AreaW, spec.AreaH = areaM, areaM
	spec.Radio = radio.Defaults()
	spec.Radio.DataRateKbps = 24_000
	return spec
}

// cityCounters is one read of a city's simulated statistics: the
// deterministic counters a speed-only change must leave identical.
type cityCounters struct {
	now        time.Duration
	migrations uint64
	fired      []uint64 // per tile
	halo       uint64
	radio      radio.Stats
	drv        core.Stats
	tcp        scenario.TCPStats
	invariants uint64
}

func readCity(c *shard.City) cityCounters {
	k := cityCounters{now: c.Now(), migrations: c.Migrations, fired: make([]uint64, len(c.Tiles))}
	for i, t := range c.Tiles {
		k.fired[i] = t.World.Kernel.Fired()
		s := t.World.Medium.Stats()
		k.radio.Transmitted += s.Transmitted
		k.radio.Delivered += s.Delivered
		k.radio.LostRandom += s.LostRandom
		k.radio.Retries += s.Retries
		k.radio.Collisions += s.Collisions
		k.halo += s.HaloInjected
	}
	for _, cl := range c.Clients() {
		k.drv = k.drv.Add(cl.Stats())
		t := cl.TCPStats()
		k.tcp.SegmentsSent += t.SegmentsSent
		k.tcp.RetxSegments += t.RetxSegments
		k.tcp.Timeouts += t.Timeouts
		k.tcp.BytesAcked += t.BytesAcked
		k.invariants += cl.InvariantsTotal()
	}
	return k
}

func (k cityCounters) events() uint64 {
	var n uint64
	for _, f := range k.fired {
		n += f
	}
	return n
}

// cityLayer fills the per-layer counters for the window between two
// reads: kernel events, medium, MAC/DHCP join, driver and TCP totals.
func cityLayer(layer map[string]float64, a, b cityCounters, wallS float64) {
	events := float64(b.events() - a.events())
	tx := float64(b.radio.Transmitted - a.radio.Transmitted)
	delivered := float64(b.radio.Delivered - a.radio.Delivered)
	assoc := float64(b.drv.AssocAttempts - a.drv.AssocAttempts)
	dhcp := float64(b.drv.DHCPAttempts - a.drv.DHCPAttempts)
	segs := float64(b.tcp.SegmentsSent - a.tcp.SegmentsSent)
	set := map[string]float64{
		"shard.tiles":        float64(len(b.fired)),
		"shard.migrations":   float64(b.migrations - a.migrations),
		"shard.halo_frames":  float64(b.halo - a.halo),
		"shard.sim_rate":     (b.now - a.now).Seconds() / wallS,
		"sim.events":         events,
		"sim.ns_per_event":   ratio(wallS*1e9, events),
		"radio.tx":           tx,
		"radio.delivered":    delivered,
		"radio.fanout":       ratio(delivered, tx),
		"radio.lost":         float64(b.radio.LostRandom - a.radio.LostRandom),
		"radio.collisions":   float64(b.radio.Collisions - a.radio.Collisions),
		"radio.retries":      float64(b.radio.Retries - a.radio.Retries),
		"mac.assoc_attempts": assoc,
		"mac.assoc_ok_ratio": ratio(float64(b.drv.AssocSuccesses-a.drv.AssocSuccesses), assoc),
		"dhcp.attempts":      dhcp,
		"dhcp.ok_ratio":      ratio(float64(b.drv.DHCPSuccesses-a.drv.DHCPSuccesses), dhcp),
		"join.successes":     float64(b.drv.JoinSuccesses - a.drv.JoinSuccesses),
		"core.switches":      float64(b.drv.Switches - a.drv.Switches),
		"core.probes":        float64(b.drv.ProbesSent - a.drv.ProbesSent),
		"core.soft_handoffs": float64(b.drv.SoftHandoffs - a.drv.SoftHandoffs),
		"tcp.segments":       segs,
		"tcp.retx_ratio":     ratio(float64(b.tcp.RetxSegments-a.tcp.RetxSegments), segs),
		"tcp.timeouts":       float64(b.tcp.Timeouts - a.tcp.Timeouts),
		"tcp.bytes_acked":    float64(b.tcp.BytesAcked - a.tcp.BytesAcked),
	}
	for k, v := range set {
		layer[k] = v
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// joinLatencyP50 is the median virtual join latency, in milliseconds,
// of the successful joins completed in (from, to].
func joinLatencyP50(c *shard.City, from, to time.Duration) float64 {
	var ms []float64
	for _, cl := range c.Clients() {
		for _, j := range cl.Joins {
			if j.Success && j.At > from && j.At <= to {
				ms = append(ms, float64(j.Elapsed)/1e6)
			}
		}
	}
	return medianOf(ms)
}

// advance runs the city to until. Untraced, that is one City.Run call;
// traced, one call per layout epoch, each a span, and the epoch times
// and per-tile event balance go into layer.
func advance(c *shard.City, until time.Duration, tr *tracer, layer map[string]float64) error {
	if tr == nil {
		return c.Run(until)
	}
	var epochMS, imbalance []float64
	for c.Now() < until {
		t1 := c.Now() + c.Layout.Epoch
		if t1 > until {
			t1 = until
		}
		before := readFired(c)
		tr.begin("epoch")
		err := c.Run(t1)
		epochMS = append(epochMS, float64(tr.end())/1e6)
		if err != nil {
			return err
		}
		var sum, top float64
		for i, t := range c.Tiles {
			d := float64(t.World.Kernel.Fired() - before[i])
			sum += d
			top = math.Max(top, d)
		}
		if sum > 0 {
			imbalance = append(imbalance, top/(sum/float64(len(c.Tiles))))
		}
	}
	sort.Float64s(epochMS)
	layer["shard.epoch_ms_p50"] = medianOf(epochMS)
	if n := len(epochMS); n > 0 {
		layer["shard.epoch_ms_max"] = epochMS[n-1]
	}
	var mean float64
	for _, v := range imbalance {
		mean += v / float64(len(imbalance))
	}
	layer["shard.event_imbalance"] = mean
	return nil
}

func readFired(c *shard.City) []uint64 {
	out := make([]uint64, len(c.Tiles))
	for i, t := range c.Tiles {
		out[i] = t.World.Kernel.Fired()
	}
	return out
}

// checkClean runs the checks every clean city must pass: no invariant
// violations, no quarantined tiles, no injected faults.
func checkClean(ch *checks, c *shard.City, k cityCounters) {
	ch.check(k.invariants == 0, "%d invariant violations", k.invariants)
	ch.check(len(c.QuarantinedTiles()) == 0, "quarantined tiles %v", c.QuarantinedTiles())
	ch.check(c.TotalInjected() == 0, "%d faults injected in a clean run", c.TotalInjected())
}

// cityFingerprint hashes a city's simulated statistics: virtual time,
// migrations, every tile's kernel event count and medium counters, and
// every client's driver, TCP and join record in MAC order.
func cityFingerprint(c *shard.City) string {
	h := sha256.New()
	put(h, int64(c.Now()), c.Migrations)
	for _, t := range c.Tiles {
		put(h, t.World.Kernel.Fired(), t.World.Medium.Stats())
	}
	for _, cl := range c.Clients() {
		put(h, cl.Stats(), cl.TCPStats(), cl.InvariantsTotal(), uint64(len(cl.Joins)))
		for _, j := range cl.Joins {
			put(h, int64(j.At), int64(j.Elapsed), j.Success)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func put(h hash.Hash, vs ...any) {
	for _, v := range vs {
		// Every value is a fixed-size number, bool or struct of them, so
		// binary.Write cannot fail.
		_ = binary.Write(h, binary.LittleEndian, v)
	}
}
