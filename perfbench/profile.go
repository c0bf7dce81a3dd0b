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

// profileLayers are the layers self time is split into: the internal
// packages a performance change is expected to touch, plus the Go runtime
// (allocation, GC and scheduling).
var profileLayers = []string{"sim", "netsim", "pkt", "ctl", "sdn", "epc", "core", "telemetry", "vision", "compute", "runtime"}

// layerOf maps a profiled function name to its layer, or "" for code
// outside every listed layer (other packages and the standard library).
func layerOf(fn string) string {
	if fn == "runtime" || strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "acacia/internal/")
	if !ok {
		return ""
	}
	pkg, _, ok := strings.Cut(rest, ".")
	if !ok {
		return ""
	}
	for _, l := range profileLayers {
		if pkg == l {
			return l
		}
	}
	return ""
}

// selfByLayer reads a gzipped pprof CPU profile and returns each layer's
// share of total sampled CPU time, attributing every sample to the
// innermost function of its leaf location (self time), and the number of
// samples.
func selfByLayer(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	funcName := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		if nameIdx < uint64(len(p.strings)) {
			funcName[id] = p.strings[nameIdx]
		}
	}
	byLayer := make(map[string]float64, len(profileLayers))
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		total += v
		if fns := p.locations[s.locs[0]]; len(fns) > 0 {
			if l := layerOf(funcName[fns[0]]); l != "" {
				byLayer[l] += v
			}
		}
	}
	frac := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		if total > 0 {
			frac[l] = byLayer[l] / total
		} else {
			frac[l] = 0
		}
	}
	return frac, len(p.samples), nil
}

// profile holds the parts of a pprof profile.proto that self time needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]uint64   // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return appendUvarints(&s.locs, wire, v, data)
				case fSampleValue:
					var u []uint64
					if err := appendUvarints(&u, wire, v, data); err != nil {
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
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, its value for varints, and its payload for
// length-delimited fields.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field, packed or not.
func appendUvarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
