package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuShares reads a runtime/pprof CPU profile and returns, per simulator
// package, the share of CPU samples whose innermost frame lies in it, as
// cpu.<pkg>_share, plus cpu.gc_share: samples anywhere inside the
// garbage collector or the allocator. A sample counts toward one share at
// most, gc first, so nested layers (frontend inside core.StepN) separate.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	counts := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		total += s.value
		frames := prof.frames(s.locations)
		if len(frames) == 0 {
			continue
		}
		if inGC(frames) {
			counts["gc"] += s.value
			continue
		}
		counts[simPackage(frames[0])] += s.value
	}
	out := map[string]float64{}
	for _, pkg := range profiledPackages {
		share := 0.0
		if total > 0 {
			share = counts[pkg] / total
		}
		out["cpu."+pkg+"_share"] = share
	}
	return out, nil
}

// profiledPackages are the packages with a cpu.<pkg>_share metric.
var profiledPackages = []string{"frontend", "ftq", "bpu", "cache", "backend", "hwpf", "program", "core", "gc"}

// gcFrames mark a sample as garbage-collection or allocation work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.mallocgc", "runtime.gcStart",
}

func inGC(frames []string) bool {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return true
			}
		}
	}
	return false
}

// simPackage maps a function name to its frontsim/internal package ("" for
// anything else): "frontsim/internal/ftq.(*FTQ).Tick" -> "ftq".
func simPackage(fn string) string {
	const prefix = "frontsim/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// profile is the part of a pprof profile.proto the shares need.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strs      []string
}

type profSample struct {
	locations []uint64
	value     float64
}

// frames returns a sample's function names, innermost first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			if si, ok := p.functions[fid]; ok && si >= 0 && int(si) < len(p.strs) {
				out = append(out, p.strs[si])
			}
		}
	}
	return out
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
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

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			var values []uint64
			if err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case fSampleLocation:
					s.locations = appendPacked(s.locations, wire, v, d)
				case fSampleValue:
					values = appendPacked(values, wire, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				// CPU profiles carry [samples, nanoseconds]; use the last.
				s.value = float64(int64(values[len(values)-1]))
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(d, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64 = -1
			if err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case fProfileString:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn per field with the
// varint value (wire type 0) or the payload (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
