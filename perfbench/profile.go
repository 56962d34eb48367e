package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layers are the folds a CPU profile's flat samples are reported in, in
// report order. Every package of the module maps onto one of them through
// layerOfPackage; anything else is "runtime" or "other".
var layers = []string{"sim", "netem", "tcp", "flow", "bt", "wp2p", "runtime", "stats", "transport", "scenario", "other"}

const internalPrefix = "github.com/wp2p/wp2p/internal/"

// layerOfPackage maps the module's internal packages onto layers. Packages
// not named here fold into "other".
var layerOfPackage = map[string]string{
	"sim":         "sim",
	"netem":       "netem",
	"tcp":         "tcp",
	"flow":        "flow",
	"bt":          "bt",
	"ordset":      "bt",
	"wp2p":        "wp2p",
	"mobility":    "wp2p",
	"stats":       "stats",
	"transport":   "transport",
	"scenario":    "scenario",
	"experiments": "scenario",
	"runner":      "scenario",
}

// packageOf returns the import path of a Go symbol name such as
// "github.com/wp2p/wp2p/internal/sim.(*Engine).pop" or
// "internal/runtime/maps.(*Map).getWithKey". Assembly bodies such as
// "aeshashbody" have no package and return "".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold paths of their own
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+dot]
}

// layerOf folds one function into its layer: the module's packages by
// layerOfPackage; the runtime, internal/runtime/*, runtime/internal/* and
// the aeshash bodies into "runtime" (GC workers are runtime functions);
// everything else, including the profiler itself, into "other".
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, internalPrefix):
		sub, _, _ := strings.Cut(strings.TrimPrefix(pkg, internalPrefix), "/")
		if l, ok := layerOfPackage[sub]; ok {
			return l
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"),
		strings.HasPrefix(pkg, "internal/runtime/"), strings.HasPrefix(fn, "aeshash"):
		return "runtime"
	}
	return "other"
}

// flatCPU decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds of each leaf function: the flat profile. Only the fields it
// needs are decoded; the format is profile.proto from
// github.com/google/pprof.
func flatCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		sampleTypes [][]byte
		samples     [][]byte
		strs        []string
		leafFunc    = map[uint64]uint64{} // location id → innermost function id
		funcName    = map[uint64]int64{}  // function id → string index
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, data)
		case 2:
			samples = append(samples, data)
		case 4: // Location{id = 1, line = 4}; the first line is the leaf
			var id, fnID uint64
			seen := false
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seen:
					seen = true
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fnID = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fnID
			return err
		case 5: // Function{id = 1, name = 2}
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The CPU profile's sample types are samples/count and cpu/nanoseconds.
	cpuIdx := -1
	for i, st := range sampleTypes {
		err := fields(st, func(n int, v uint64, _ []byte) error {
			if n == 1 && v < uint64(len(strs)) && strs[v] == "cpu" {
				cpuIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}

	flat := map[string]int64{}
	for _, s := range samples {
		var locs, vals []uint64
		err := fields(s, func(n int, v uint64, d []byte) error {
			switch n {
			case 1:
				locs = appendVarints(locs, v, d)
			case 2:
				vals = appendVarints(vals, v, d)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(locs) == 0 || cpuIdx >= len(vals) {
			continue
		}
		name := "[unknown]"
		if idx, ok := funcName[leafFunc[locs[0]]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		flat[name] += int64(vals[cpuIdx])
	}
	return flat, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (a packed
// repeated field arrives as bytes). Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether it came
// packed (data) or as a single value (v).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// layerCPU folds a flat profile into per-layer CPU nanoseconds and records
// which layer every package seen went to.
func layerCPU(flat map[string]int64, into map[string]int64, folded map[string]string) {
	for fn, ns := range flat {
		l := layerOf(fn)
		into[l] += ns
		pkg := packageOf(fn)
		if pkg == "" {
			pkg = fn
		}
		folded[pkg] = l
	}
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
