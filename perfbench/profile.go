package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

// layers are this repository's modules whose host time the traced run
// reports. Samples in other islands packages (core, topology, ...) fold into
// "other", samples in the benchmark's own code into "perfbench", and
// samples with neither into "runtime" (GC workers, the scheduler).
var layers = []string{"sim", "storage", "lock", "latch", "engine", "ipc", "wal", "mem", "workload", "exec"}

const internalPrefix = "islands/internal/"

// isOwnFrame reports whether a function belongs to the benchmark itself,
// named main.* in its binary and islands/perfbench.* in its test binary.
func isOwnFrame(fn string) bool {
	return strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "islands/perfbench.")
}

// layerOf returns the layer a sample is charged to, given its stack as
// function names, leaf first: the innermost frame of an islands/internal
// package, or of the benchmark itself, decides. Runtime leaves (memmove,
// mallocgc, coroutine switches) are thereby charged to the layer that
// called them.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if slices.Contains(layers, pkg) {
				return pkg
			}
			return "other"
		}
		if isOwnFrame(fn) {
			return "perfbench"
		}
	}
	return "runtime"
}

// inMalloc reports whether a stack is inside the allocator.
func inMalloc(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return true
		}
	}
	return false
}

// chargeProfiles adds the traced rep's per-layer CPU seconds and the
// storage layer's allocated MB to out. cpu is the rep's CPU profile;
// allocBefore is the process's allocation profile taken before the rep.
func chargeProfiles(out map[string]float64, cpu, allocBefore *bytes.Buffer) error {
	p, err := parseProfile(cpu)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	i := p.valueIndex("cpu")
	if i < 0 {
		return fmt.Errorf("cpu profile has no cpu values (has %v)", p.types)
	}
	by := map[string]int64{}
	var total, malloc int64
	for _, s := range p.samples {
		ns := s.values[i]
		by[layerOf(s.stack)] += ns
		total += ns
		if inMalloc(s.stack) {
			malloc += ns
		}
	}
	for _, l := range layers {
		out[l+".cpu_s"] = float64(by[l]) / 1e9
	}
	out["runtime.bg_cpu_s"] = float64(by["runtime"]) / 1e9
	out["runtime.malloc_cpu_s"] = float64(malloc) / 1e9
	out["profile.cpu_s"] = float64(total) / 1e9

	runtime.GC() // publish the rep's allocations to the profile
	var after bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&after, 0); err != nil {
		return err
	}
	before, err := layerAllocBytes(allocBefore, "storage")
	if err != nil {
		return err
	}
	now, err := layerAllocBytes(&after, "storage")
	if err != nil {
		return err
	}
	out["storage.alloc_mb"] = float64(now-before) / 1e6
	return nil
}

// layerAllocBytes returns the bytes an allocation profile charges to layer.
func layerAllocBytes(buf *bytes.Buffer, layer string) (int64, error) {
	p, err := parseProfile(buf)
	if err != nil {
		return 0, fmt.Errorf("allocs profile: %w", err)
	}
	i := p.valueIndex("alloc_space")
	if i < 0 {
		return 0, fmt.Errorf("allocs profile has no alloc_space values (has %v)", p.types)
	}
	var n int64
	for _, s := range p.samples {
		if layerOf(s.stack) == layer {
			n += s.values[i]
		}
	}
	return n, nil
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	types   []string // sample value types, e.g. "samples", "cpu"
	samples []sample
}

type sample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	values []int64
}

func (p *profile) valueIndex(typ string) int { return slices.Index(p.types, typ) }

var errMalformed = errors.New("malformed profile")

// parseProfile decodes a gzipped pprof protobuf (profile.proto) with the
// standard library only: sample types, samples, locations, functions and
// the string table.
func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		typeIdx []uint64
		raws    []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = eachField(b, func(num int, wire uint64, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return eachField(data, func(n int, _ uint64, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample{location_id = 1, value = 2}
			var s rawSample
			err := eachField(data, func(n int, w uint64, v uint64, d []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendInts(s.locs, w, v, d)
				case 2:
					s.vals, err = appendInts(s.vals, w, v, d)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location{id = 1, line = 4 {function_id = 1}}
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, _ uint64, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n int, _ uint64, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function{id = 1, name = 2}
			var id, name uint64
			err := eachField(data, func(n int, _ uint64, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", errMalformed
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range typeIdx {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, s)
	}
	for _, rs := range raws {
		if len(rs.vals) != len(p.types) {
			return nil, errMalformed
		}
		s := sample{values: make([]int64, len(rs.vals))}
		for i, v := range rs.vals {
			s.values[i] = int64(v)
		}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				name, err := str(funcs[f])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: its number,
// wire type, and either its integer value or its bytes.
func eachField(b []byte, fn func(num int, wire uint64, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errMalformed
		}
		if err := fn(int(key>>3), key&7, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field's value(s): one varint, or a
// packed run of them.
func appendInts(dst []uint64, wire, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errMalformed
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
