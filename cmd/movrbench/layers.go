package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// The layers are this repository's modules. A CPU profile sample goes to
// the innermost frame on its stack that belongs to a layer; frames of
// shared helpers (math, units, geom, stats, obs, the runtime outside GC)
// belong to no layer and so inherit their caller's.
var layers = []string{"vr", "channel", "gainctl", "linkmgr", "coex", "venue", "stream", "experiments", "fleet", "server", "wire", "gc"}

// internalLayers maps each internal package to its layer. Packages
// missing here (geom, units, stats, obs, bench, movrclient) inherit.
var internalLayers = map[string]string{
	"vr":          "vr",
	"channel":     "channel",
	"room":        "channel",
	"antenna":     "channel",
	"radio":       "channel",
	"phy":         "channel",
	"gainctl":     "gainctl",
	"reflector":   "gainctl",
	"amplifier":   "gainctl",
	"control":     "gainctl",
	"relay":       "gainctl",
	"linkmgr":     "linkmgr",
	"coex":        "coex",
	"venue":       "venue",
	"stream":      "stream",
	"sim":         "stream",
	"experiments": "experiments",
	"align":       "experiments",
	"baseline":    "experiments",
	"dsp":         "experiments",
	"ofdm":        "experiments",
	"fleet":       "fleet",
	"fleet/pool":  "fleet",
	"server":      "server",
	"metrics":     "server",
}

// wirePackages are the standard-library packages of the HTTP/JSON path.
var wirePackages = map[string]bool{"net": true, "net/http": true, "net/textproto": true, "encoding/json": true}

// gcFrames are runtime functions that do garbage-collector work.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.greyobject", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.wbBufFlush", "runtime._GC",
}

const modulePath = "github.com/movr-sim/movr"

// layerOf names the layer of a profiled function, or "" when the frame
// inherits its caller's layer.
func layerOf(fn string) string {
	for _, g := range gcFrames {
		if strings.HasPrefix(fn, g) {
			return "gc"
		}
	}
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, modulePath+"/internal/"); ok {
		return internalLayers[rest]
	}
	if wirePackages[pkg] || strings.HasPrefix(pkg, "net/http/") {
		return "wire"
	}
	return ""
}

// packageOf extracts the import path from a profiled function name such
// as "net/http.(*conn).serve" or "example.com/x/pool.Map[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerShares is a CPU profile attributed to layers: each layer's share
// of all samples, and the share no layer frame claimed.
type layerShares struct {
	Samples      int                `json:"samples"`
	Shares       map[string]float64 `json:"shares"`
	Unattributed float64            `json:"unattributed"`
	Top          map[string]string  `json:"top_function"`
}

// attribute decodes a gzipped pprof CPU profile and splits its CPU time
// across the layers.
func attribute(raw []byte) (layerShares, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return layerShares{}, err
	}
	byLayer := map[string]int64{}
	byFunc := map[string]map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.value
		layer, fn := "", ""
	stack:
		for _, loc := range s.locs {
			for _, f := range p.locFuncs[loc] {
				if l := layerOf(p.funcNames[f]); l != "" {
					layer, fn = l, p.funcNames[f]
					break stack
				}
			}
		}
		byLayer[layer] += s.value
		if layer != "" {
			if byFunc[layer] == nil {
				byFunc[layer] = map[string]int64{}
			}
			byFunc[layer][fn] += s.value
		}
	}
	out := layerShares{Samples: len(p.samples), Shares: map[string]float64{}, Top: map[string]string{}}
	for _, l := range layers {
		if total > 0 {
			out.Shares[l] = float64(byLayer[l]) / float64(total)
		}
		var best int64
		for fn, v := range byFunc[l] {
			if v > best || (v == best && fn < out.Top[l]) {
				best, out.Top[l] = v, fn
			}
		}
	}
	if total > 0 {
		out.Unattributed = float64(byLayer[""]) / float64(total)
	}
	return out, nil
}

// metricUnit names a per-layer metric and its unit.
type metricUnit struct{ name, unit string }

// offlineOnly and daemonOnly are the per-layer metrics only one kind of
// workload exercises: the fleet engine's internals are timed in-process,
// the HTTP path only exists with a daemon. The other kind reports them as
// 0.
var (
	offlineOnly = []metricUnit{
		{"fleet.specgen_ms", "ms"}, {"coex.geometry_ms", "ms"}, {"venue.interference_ms", "ms"},
		{"experiments.bay_p50_ms", "ms"}, {"experiments.bay_p99_ms", "ms"},
		{"experiments.session_p50_ms", "ms"}, {"experiments.session_p99_ms", "ms"},
		{"fleet.pool_idle_frac", "frac"}, {"fleet.collect_us", "us"},
		{"coex.windows_per_job", "count"}, {"linkmgr.reassess_per_job", "count"},
	}
	daemonOnly = []metricUnit{
		{"wire.submit_p50_ms", "ms"}, {"wire.submit_p99_ms", "ms"}, {"wire.fetch_p50_ms", "ms"}, {"wire.result_kb", "KB"},
		{"server.normalize_us", "us"}, {"server.hash_us", "us"},
		{"server.queue_wait_p50_ms", "ms"}, {"server.queue_wait_p99_ms", "ms"},
		{"server.exec_p50_ms", "ms"}, {"server.exec_p99_ms", "ms"},
		{"server.cache_hit_ratio", "frac"}, {"server.coalesced", "count"}, {"server.rejected", "count"},
		{"server.store_kb_per_job", "KB"}, {"load.lag_p99_ms", "ms"},
		{"server.lat_p50_ms", "ms"}, {"server.lat_p99_ms", "ms"}, {"server.slo_frac", "frac"},
	}
)

func setZeros(r *runResult, ms []metricUnit) {
	for _, m := range ms {
		r.set(m.name, 0, m.unit, 0)
	}
}

// setCPUShares attributes a profile and reports <layer>.cpu_share for
// every layer.
func setCPUShares(r *runResult, raw []byte) (layerShares, error) {
	sh, err := attribute(raw)
	if err != nil {
		return sh, err
	}
	for _, l := range layers {
		r.set(l+".cpu_share", sh.Shares[l], "frac", sh.Samples)
	}
	return sh, nil
}

// writeLayers records the layer map and a workload's attributed profile.
func writeLayers(path, workload string, sh layerShares) error {
	doc := struct {
		Workload string            `json:"workload"`
		Layers   []string          `json:"layers"`
		Packages map[string]string `json:"internal_packages"`
		Wire     []string          `json:"wire_packages"`
		Profile  layerShares       `json:"profile"`
	}{Workload: workload, Layers: layers, Packages: internalLayers, Profile: sh}
	for p := range wirePackages {
		doc.Wire = append(doc.Wire, p)
	}
	sort.Strings(doc.Wire)
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location → functions, innermost first
	funcNames map[uint64]string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// decodeProfile reads the gzipped protocol-buffer profile runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto): samples,
// locations with their inlined lines, functions and the string table.
func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{}
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals := appendVarints(nil, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcName {
		if idx < 0 || int(idx) >= len(strs) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcNames[id] = strs[idx]
	}
	return p, nil
}

// eachField walks the fields of one protocol-buffer message, passing
// varint values as v and length-delimited payloads as b.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProfile
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadProfile
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProfile
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errBadProfile
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProfile
			}
			data = data[4:]
			continue
		default:
			return errBadProfile
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated-integer field occurrence: a single
// varint, or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errBadProfile = errors.New("profile: malformed protocol buffer")
