package main

// CPU-profile attribution: every sample of a runtime/pprof CPU profile
// is charged to one layer, the package of the innermost stack frame
// that belongs to this repository. So container/heap under the event
// queue counts as sim and crc32 under the ICRC as roce; a sample with
// no repository frame at all (GC workers, the scheduler) counts as
// runtime. The profile is decoded by hand from its protobuf wire form
// to keep the benchmark free of dependencies.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostLayers lists every layer a sample can be charged to, in report
// order. "root" is the p4ce package itself, "bench" this benchmark.
var hostLayers = []string{
	"sim", "simnet", "roce", "rnic", "tofino", "p4ce", "mu", "core",
	"cm", "fabric", "chaos", "metrics", "telemetry", "otrace", "trace",
	"root", "bench", "runtime",
}

// layerOf maps a fully qualified function name to its layer, or ""
// when the function is not part of this repository.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "p4ce/internal/"):
		pkg := fn[len("p4ce/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	case strings.HasPrefix(fn, "p4ce/perfbench."):
		return "bench"
	case strings.HasPrefix(fn, "p4ce."):
		return "root"
	}
	return ""
}

// hostShares decodes a gzipped pprof CPU profile and returns each
// layer's share of CPU time in percent. Every layer of hostLayers is
// present; the shares sum to 100 when the profile holds any sample.
func hostShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	funcLayer := make(map[uint64]string, len(p.funcs))
	for id, nameIdx := range p.funcs {
		if nameIdx < uint64(len(p.strs)) {
			funcLayer[id] = layerOf(p.strs[nameIdx])
		}
	}
	byLayer := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		shares[l] = 0
	}
	for l, v := range byLayer {
		if _, ok := shares[l]; !ok {
			return nil, 0, fmt.Errorf("cpu profile: samples in unlisted package %q", l)
		}
		shares[l] = 100 * float64(v) / float64(total)
	}
	return shares, len(p.samples), nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]uint64   // function id -> name string index
	strs    []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, sb)
				case 2:
					vals = appendVarints(vals, w, v, sb)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(sb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For wire type 0
// fn receives the varint in v, for wire type 2 the payload in sub;
// fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v   uint64
			sub []byte
		)
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
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
