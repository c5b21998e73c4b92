package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution rule. A profile sample is charged to exactly one
// bucket, found by walking its stack from the leaf towards the root and
// stopping at the first frame that classifies:
//
//   - a garbage-collector frame (mark workers, assists, sweeping,
//     scavenging, write barriers) charges "runtime.gc";
//   - runtime.mallocgc and its size-class variants charge "runtime.malloc";
//   - a frame of pfsim/internal/<pkg> charges <pkg> (sub-packages fold
//     into their top-level package);
//   - any other frame (standard library, the runtime's own helpers, the
//     pfsim root package, this benchmark) is skipped.
//
// A stack that never classifies charges "runtime.other": scheduler work,
// syscalls, and code that runs outside pfsim/internal altogether. So a
// memmove inside a flow-owned append is flow's, while the allocator work
// behind that append is runtime.malloc. Allocation samples use the same
// walk; their leaf is always inside the allocator, so only the package
// rule and "runtime.other" ever apply.
const internalPrefix = "pfsim/internal/"

// gcPrefixes name the runtime functions that do collector work.
var gcPrefixes = []string{
	"runtime.gc", // gcBgMarkWorker, gcDrain*, gcAssistAlloc*, gcWriteBarrier*, gcStart, ...
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.sweepone",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.scanblock",
	"runtime.scanstack",
	"runtime.scanframeworker",
	"runtime.greyobject",
	"runtime.wbBufFlush",
	"runtime.(*gcWork)",
	"runtime.(*gcControllerState)",
	"runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep",
	"runtime.(*scavengerState)",
}

// classify returns the bucket for a stack given leaf first.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return "runtime.malloc"
		}
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "runtime.other"
}

// attribute decodes a gzipped pprof profile and sums the named sample
// value (e.g. "cpu" or "alloc_space") per bucket.
func attribute(raw []byte, valueType string) (map[string]int64, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	col := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile has no %q samples (types %v)", valueType, p.sampleTypes)
	}
	out := map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		if col >= len(s.values) || s.values[col] == 0 {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locations {
			stack = append(stack, p.locations[loc]...)
		}
		out[classify(stack)] += s.values[col]
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	// locations maps a location id to its function names, innermost
	// (inlined) first, as profile.proto orders Location.line.
	locations map[uint64][]string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// decodeProfile parses a gzipped profile.proto message. Only the fields
// classification reads are decoded; the rest are skipped.
func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   []int64
		locLines  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
		p         = &profile{locations: map[uint64][]string{}}
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locations, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locations[id] = names
	}
	return p, nil
}

// appendUints decodes a repeated varint field in packed or unpacked form.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(data) < size {
				return errors.New("truncated fixed field")
			}
			data = data[size:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
