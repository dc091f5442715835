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

// layerRule maps every function whose name starts with prefix to layer.
// An empty layer passes the sample on to the caller's frame.
type layerRule struct {
	prefix, layer string
}

// layerTable attributes CPU samples to the repository's layers. A sample
// belongs to the layer of its leaf-most frame that a rule maps, except
// that a core frame outside the pipeline stages (rule layer "core.other")
// belongs to the nearest enclosing stage when there is one. Samples with
// no mapped frame count as "other". Both unmapped shares are always
// reported, so a renamed function shows up as drift in them.
var layerTable = []layerRule{
	{"repro/internal/core.(*Core).dispatchStage", "core.dispatch"},
	{"repro/internal/core.(*Core).issueStage", "core.issue"},
	{"repro/internal/core.(*Core).commitStage", "core.commit"},
	{"repro/internal/core.(*Core).memoryStage", "memsys"},
	{"repro/internal/core.", "core.other"},
	{"repro/internal/memsys.", "memsys"},
	{"repro/internal/tlb.", "memsys"},
	{"repro/internal/cache.", "cache"},
	{"repro/internal/sched.", "sched"},
	{"repro/internal/emu.", "emu"},
	{"repro/internal/mem.", "emu"},
	{"repro/internal/isa.", "isa"},
	{"repro/internal/experiments.", "experiments"},
	{"repro/internal/profile.", "experiments"},
	{"repro/internal/analysis.", "analysis"},
	{"repro/internal/serve.", "serve"},
	{"repro/internal/sweep.", "sweep"},
	{"encoding/json.", "json"},
	{"net/http.", "net_http"},
	{"net.", "net_http"},
	{"runtime.gcBgMarkWorker", "gc"},
	{"runtime.gcDrain", "gc"},
	{"runtime.gcAssist", "gc"},
	{"runtime.gcStart", "gc"},
	{"runtime.gcWriteBarrier", "gc"},
	{"runtime.wbBuf", "gc"},
	{"runtime.bulkBarrier", "gc"},
	{"runtime.scanobject", "gc"},
	{"runtime.markroot", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.sweepone", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime.mallocgc", "gc"},
	{"runtime.newobject", "gc"},
	{"runtime.makeslice", "gc"},
	{"runtime.growslice", "gc"},
	{"runtime.(*mheap)", "gc"},
	{"runtime.(*mcache)", "gc"},
	{"runtime.(*mcentral)", "gc"},
}

// coreStageLayers are the layers a generic core frame defers to.
var coreStageLayers = map[string]bool{
	"core.dispatch": true, "core.issue": true, "core.commit": true, "memsys": true,
}

func lookupLayer(table []layerRule, fn string) (layer string, stage bool) {
	for _, r := range table {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer, strings.HasPrefix(r.prefix, "repro/internal/core.(*Core).") && coreStageLayers[r.layer]
		}
	}
	return "", false
}

// stackSample is one profile sample: its frames from leaf to root and its
// weight (CPU nanoseconds).
type stackSample struct {
	frames []string
	weight int64
}

// classify returns the layer a sample belongs to.
func classify(table []layerRule, frames []string) string {
	for i, fn := range frames {
		layer, _ := lookupLayer(table, fn)
		if layer == "" {
			continue
		}
		if layer == "core.other" {
			for _, up := range frames[i+1:] {
				if l, stage := lookupLayer(table, up); stage {
					return l
				}
			}
		}
		return layer
	}
	return "other"
}

// cpuShares buckets samples into the share of CPU each layer of cpuLayers
// took. Every layer is present in the result.
func cpuShares(samples []stackSample, table []layerRule) map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		out[classify(table, s.frames)] += float64(s.weight) / float64(total)
	}
	return out
}

// cpuProfile is a running CPU profile of this process.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) stop() ([]stackSample, error) {
	pprof.StopCPUProfile()
	return decodeProfile(&p.buf)
}

// decodeProfile reads the samples of a gzipped pprof profile. It decodes
// only what bucketing needs: samples, locations, functions and strings.
func decodeProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
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
			locFns[id] = fns
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
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stackSample{frames: frames, weight: s.values[len(s.values)-1]})
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may be packed (wire
// type 2) or not (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
