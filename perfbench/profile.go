package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
)

// cpuProfile is a running CPU profile that writes to path.
type cpuProfile struct {
	f *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and returns its CPU seconds bucketed by layer.
func (p *cpuProfile) stop() ([]layerTime, error) {
	pprof.StopCPUProfile()
	if _, err := p.f.Seek(0, io.SeekStart); err != nil {
		p.f.Close()
		return nil, err
	}
	samples, err := decodeProfile(p.f)
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return bucketSamples(samples), nil
}

// profiledPass runs the traced pass of a workload with a fresh tracer under
// a CPU profile written to <workload>-cpu.pprof, and returns the pass, its
// spans and its CPU bucketed by layer.
func profiledPass[P any](o options, workload string, pass func(tr *tracer) (P, error)) (P, *tracer, []layerTime, error) {
	var zero P
	tr := newTracer()
	prof, err := startCPUProfile(filepath.Join(o.outDir, workload+"-cpu.pprof"))
	if err != nil {
		return zero, nil, nil, err
	}
	p, err := pass(tr)
	buckets, perr := prof.stop()
	if err != nil {
		return zero, nil, nil, err
	}
	if perr != nil {
		return zero, nil, nil, perr
	}
	return p, tr, buckets, nil
}

// profSample is one CPU-profile sample: its stack (leaf first, inlined
// frames expanded) and its CPU nanoseconds.
type profSample struct {
	stack []string
	count int64 // sampling ticks
	nanos int64
}

// workLayers are the packages that do a workload's computation, each
// named by its layer. The harness packages (runner, experiments, stats,
// table, serve, shard, obs, trace, catalog) only drive them; xrand is
// plumbing every layer shares.
var workLayers = map[string]string{
	"geom": "geom", "sinr": "sinr.build", "sim": "sim", "core": "sim", "baselines": "sim", "radio": "sim",
	"schedule": "schedule", "hitting": "hitting",
}

// harnessLayers names the harness packages' buckets.
var harnessLayers = map[string]string{"stats": "experiments", "table": "experiments", "trace": "obs"}

// repoPkg returns the internal package of a repository function name, or "".
func repoPkg(fn string) string {
	pkg, ok := strings.CutPrefix(fn, "fadingcr/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

// layerOf names the layer a stack's CPU belongs to (the stack is leaf
// first). A stack inside a SINR Deliver is Deliver time. Otherwise the
// outermost computation package decides, so helpers count for their
// caller: attenuation and pow called from schedule.Feasible are schedule
// time, Dist2 called while building a channel's gain matrix is channel
// build time. Stacks with no computation package go to the innermost
// harness package, then to GC, the benchmark itself, or other work.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "fadingcr/internal/sinr.") && strings.HasSuffix(fn, ".Deliver") {
			return "sinr.deliver"
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if l, ok := workLayers[repoPkg(stack[i])]; ok {
			return l
		}
	}
	for _, fn := range stack {
		if pkg := repoPkg(fn); pkg != "" && pkg != "xrand" {
			if l, ok := harnessLayers[pkg]; ok {
				return l
			}
			return pkg
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"):
			return "runtime.gc"
		case strings.HasPrefix(fn, "main."):
			return "bench"
		}
	}
	return "other"
}

func bucketSamples(samples []profSample) []layerTime {
	secs := map[string]float64{}
	counts := map[string]int{}
	for _, s := range samples {
		l := layerOf(s.stack)
		secs[l] += float64(s.nanos) / 1e9
		counts[l] += int(s.count)
	}
	rows := make([]layerTime, 0, len(secs))
	for l, v := range secs {
		rows = append(rows, layerTime{Layer: l, Self: v, Spans: counts[l]})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Self > rows[b].Self })
	return rows
}

// decodeProfile reads the samples of a gzipped pprof profile. It decodes
// only the protobuf fields it needs (samples, locations, functions and the
// string table) so the benchmark stays standard-library only.
func decodeProfile(r io.Reader) ([]profSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("profile: sample without a CPU value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out = append(out, profSample{stack: stack, count: s.vals[0], nanos: s.vals[1]})
	}
	return out, nil
}

// eachField walks the top-level fields of a protobuf message, handing each
// to fn with its varint value (wire type 0) or its bytes (wire type 2).
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrives either as one
// unpacked value or as a packed run.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
