package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the internal/* packages the profile attributes CPU time
// to; every other frame counts as "other", and garbage collection as
// "gc".
var cpuLayers = []string{
	"sim", "radio", "mac", "dhcp", "core", "tcpsim", "backhaul", "geo",
	"wifi", "scenario", "shard", "checkpoint", "archive", "expt", "model", "sweep",
}

// gcFrames are runtime function-name prefixes that mark a sample as
// collector work: background mark workers, mutator assists, sweeping
// and scavenging.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit",
}

const internalPrefix = "spider/internal/"

// cpuProfile is a CPU profile held in memory while one simulation
// window runs.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

func startCPUProfile(c *checks) *cpuProfile {
	p := &cpuProfile{}
	p.on = c.noErr(pprof.StartCPUProfile(&p.buf), "pprof.StartCPUProfile")
	return p
}

// stop ends the profile and returns the CPU nanoseconds charged to each
// layer.
func (p *cpuProfile) stop(c *checks) map[string]float64 {
	if !p.on {
		return nil
	}
	pprof.StopCPUProfile()
	ns, err := attribute(p.buf.Bytes())
	if !c.noErr(err, "decode CPU profile") {
		return nil
	}
	return ns
}

// cpuShares turns per-layer CPU nanoseconds into cpu.<layer> shares.
func cpuShares(ns map[string]float64) map[string]float64 {
	var sum float64
	for _, v := range ns {
		sum += v
	}
	out := map[string]float64{"cpu.gc": 0, "cpu.other": 0}
	for _, l := range cpuLayers {
		out["cpu."+l] = 0
	}
	for layer, v := range ns {
		if sum > 0 {
			out["cpu."+layer] = v / sum
		}
	}
	return out
}

// attribute decodes a gzipped pprof CPU profile and splits its CPU
// nanoseconds by layer. A sample with a collector frame anywhere on its
// stack is "gc"; otherwise it belongs to the innermost frame in a
// spider/internal package, so runtime helpers (allocation, copying, map
// access) are charged to the layer that called them.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
	}
	ns := make(map[string]float64)
	for _, s := range p.samples {
		if len(s.values) > 0 {
			ns[classify(p, s.locations, known)] += float64(s.values[len(s.values)-1])
		}
	}
	return ns, nil
}

func classify(p *profile, locs []uint64, known map[string]bool) string {
	layer := ""
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			name := p.strings[p.functions[fn]]
			for _, g := range gcFrames {
				if strings.HasPrefix(name, g) {
					return "gc"
				}
			}
			if layer == "" && strings.HasPrefix(name, internalPrefix) {
				pkg := name[len(internalPrefix):]
				if i := strings.IndexAny(pkg, "./"); i >= 0 {
					pkg = pkg[:i]
				}
				layer = pkg
			}
		}
	}
	if known[layer] {
		return layer
	}
	return "other"
}

// profile is the subset of the pprof protobuf the attribution reads.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(f int, v uint64, data []byte) error {
		switch f {
		case profSampleField:
			var s profSample
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					return varints(v, data, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var fns []uint64
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := fields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringField:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", name)
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated integer field in either encoding: one
// unpacked varint (data nil) or a packed run of them.
func varints(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}
