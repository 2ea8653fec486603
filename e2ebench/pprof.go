package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof profile format (profile.proto,
// gzip-compressed protocol buffers) that a runtime/pprof CPU profile
// uses: samples with their location stacks and CPU time, locations with
// their (possibly inlined) function lines, and the string table. The
// benchmark's module has no dependencies beyond the standard library and
// the catnap module, so it carries its own reader.

// cpuSample is one profile sample: the function names of its stack,
// innermost first with inlined frames expanded, the number of profiler
// ticks that hit it, and the CPU time they stand for.
type cpuSample struct {
	frames []string
	count  int64
	nanos  int64
}

// parseCPUProfile decodes a gzip-compressed CPU profile.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs      []string
		types     []uint64 // sample_type entries as string-table indexes of their type names
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ uint64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = v
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, typ)
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendUints(s.locs, w, v, b)
				case 2:
					s.values, err = appendUints(s.values, w, v, b)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	cpu, count := -1, -1
	for i, t := range types {
		if t < uint64(len(strs)) {
			switch strs[t] {
			case "cpu":
				cpu = i
			case "samples":
				count = i
			}
		}
	}
	if cpu < 0 || count < 0 {
		return nil, errors.New("profile: not a CPU profile")
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) || count >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{count: int64(s.values[count]), nanos: int64(s.values[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.frames = append(cs.frames, str(funcNames[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// Protocol-buffer wire types used by profile.proto.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// eachField calls fn for every field of the encoded message b: v holds a
// varint (or fixed-width) value, payload a length-delimited one.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wireI64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case wireI32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field in either encoding:
// runtime/pprof packs long lists and writes short ones field by field.
func appendUints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}
