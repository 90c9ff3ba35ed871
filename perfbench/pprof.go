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

// cpuGroups maps the repository's packages onto the layers the cpu.<group>
// shares report; any package not listed falls in "other".
var cpuGroups = map[string]string{
	"zofs/internal/nvm":       "nvm",
	"zofs/internal/zofs":      "zofs",
	"zofs/internal/kernfs":    "kernfs",
	"zofs/internal/fslibs":    "fslibs",
	"zofs/internal/simclock":  "simclock",
	"zofs/internal/proc":      "proc_mpk",
	"zofs/internal/mpk":       "proc_mpk",
	"zofs/internal/lsmdb":     "lsmdb",
	"zofs/internal/telemetry": "observers",
	"zofs/internal/spans":     "observers",
	"zofs/internal/lockprof":  "observers",
	"zofs/internal/byteflow":  "observers",
	"zofs/internal/series":    "observers",
	"zofs/internal/pmemtrace": "observers",
	"zofs/internal/obsfs":     "observers",
}

// cpuGroupNames is the report order of the cpu.<group>.share metrics.
var cpuGroupNames = []string{"nvm", "zofs", "kernfs", "fslibs", "simclock", "proc_mpk", "lsmdb", "observers", "runtime", "other"}

// cpuGroup returns the layer a function's self time is charged to.
func cpuGroup(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if g, ok := cpuGroups[pkg]; ok {
		return g
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// addLeafCPU decodes a gzipped pprof CPU profile and adds every sample's
// CPU time to the group of its leaf frame (the innermost, possibly inlined,
// function): self time per layer.
func addLeafCPU(profile []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type leafSample struct {
		loc uint64
		v   int64
	}
	var (
		strs    []string
		samples []leafSample
		funcs   = map[uint64]uint64{} // function id -> name string index
		locs    = map[uint64]uint64{} // location id -> leaf function id
	)
	// Field numbers are those of profile.proto.
	err = protoFields(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s leafSample
			first := true
			err := protoFields(msg, func(num int, v uint64, packed []byte) error {
				if num != 1 && num != 2 {
					return nil
				}
				return protoInts(v, packed, func(x uint64) {
					switch {
					case num == 1 && first: // location_id, leaf first
						s.loc, first = x, false
					case num == 2: // value; the last is CPU nanoseconds
						s.v = int64(x)
					}
				})
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := protoFields(msg, func(num int, v uint64, sub []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && fn == 0: // first Line: the innermost frame
					return protoFields(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if si := funcs[locs[s.loc]]; si < uint64(len(strs)) {
			into[cpuGroup(strs[si])] += float64(s.v)
		}
	}
	return nil
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// protoInts yields a repeated integer field's values, packed or not.
func protoInts(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errProto
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
