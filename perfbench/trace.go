package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// perLayer lists every metric a traced run reports, in BENCHMARK.json
// order. A metric a workload never touches reads 0.
var perLayer = []struct{ name, unit string }{
	// Mean host CPU time of one operation in the traced run; the layer
	// budget below adds up to it plus the benchmark's own checks.
	{"op_cpu_ms", "ms"},
	// Host CPU time per operation by layer, from the CPU profile: each
	// sample goes to the innermost frame in a vrex package, the Go runtime
	// or the benchmark itself ("bench"). Standard-library frames other than
	// the runtime count toward their caller, and vrex packages without a
	// metric of their own toward "other".
	{"tensor_self_ms", "ms"},
	{"mathx_self_ms", "ms"},
	{"hashbit_self_ms", "ms"},
	{"wicsum_self_ms", "ms"},
	{"kvcache_self_ms", "ms"},
	{"core_self_ms", "ms"},
	{"model_self_ms", "ms"},
	{"hwsim_self_ms", "ms"},
	{"kvpool_self_ms", "ms"},
	{"degrade_self_ms", "ms"},
	{"serve_self_ms", "ms"},
	{"cluster_self_ms", "ms"},
	{"runtime_self_ms", "ms"},
	{"bench_self_ms", "ms"},
	{"other_self_ms", "ms"},
	// Self time per operation of the spans the benchmark records around
	// its calls into each layer, named <span>_span_ms.
	{"forward_span_ms", "ms"},
	{"observe_append_span_ms", "ms"},
	{"select_tokens_span_ms", "ms"},
	{"run_span_ms", "ms"},
	// Heap allocation per operation (the Go runtime layer's work).
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "bytes"},
	// Counts of each layer's work, per operation or as ratios.
	{"retrieval_ratio", "ratio"},
	{"examined_fraction", "ratio"},
	{"hc_clusters", "count"},
	{"events_per_op", "count"},
	{"batches_per_op", "count"},
	{"pages_moved_per_op", "count"},
	{"migrations_per_op", "count"},
	{"degradations_per_op", "count"},
}

// span is one timed call across a layer boundary, with its start and end in
// process CPU time since the trace began (the clock operations are timed
// by). Spans nest: parent is the index of the enclosing span, -1 for an
// operation's root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps a traced run's spans in memory, profiles the CPU, and writes
// both out when the run ends. A nil *tracer records nothing, so untraced
// runs pay one nil check per span.
type tracer struct {
	epoch time.Duration
	spans []span
	open  []int
	prof  bytes.Buffer
	// Heap allocations made while tracing: counters at start, then deltas.
	mallocs, allocBytes uint64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: cpuTime() - t.epoch})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = cpuTime() - t.epoch
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) start() error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mallocs, t.allocBytes = ms.Mallocs, ms.TotalAlloc
	t.epoch = cpuTime()
	return pprof.StartCPUProfile(&t.prof)
}

func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mallocs, t.allocBytes = ms.Mallocs-t.mallocs, ms.TotalAlloc-t.allocBytes
	if len(t.open) != 0 {
		return fmt.Errorf("trace: %d spans left open", len(t.open))
	}
	return nil
}

// report sets every per-layer metric from the spans and the profile; the
// workload's own counts are set afterwards and replace the zeros.
func (t *tracer) report(m metrics, ops int, busy time.Duration) error {
	for _, pl := range perLayer {
		m.set(pl.name, 0, pl.unit)
	}
	perOp := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(ops) }
	m.set("op_cpu_ms", perOp(busy), "ms")

	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	by := map[string]time.Duration{}
	for i, s := range t.spans {
		by[s.name+"_span_ms"] += self[i]
	}
	byLayer, samples, err := profileBudget(t.prof.Bytes())
	if err != nil {
		return err
	}
	for layer, d := range byLayer {
		name := layer + "_self_ms"
		if _, ok := m[name]; !ok {
			name = "other_self_ms"
		}
		by[name] += d
	}
	for name, d := range by {
		if _, ok := m[name]; ok {
			m.set(name, perOp(d), "ms")
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d CPU profile samples\n", samples)
	m.set("allocs_per_op", float64(t.mallocs)/float64(ops), "count")
	m.set("alloc_bytes_per_op", float64(t.allocBytes)/float64(ops), "bytes")
	return nil
}

// write saves the spans as a Chrome trace on a CPU-time axis (load it in
// Perfetto) and the raw CPU profile (read it with go tool pprof) under
// .bench_build/traces.
func (t *tracer) write(stem string) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".pprof"), t.prof.Bytes(), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	enc := json.NewEncoder(w)
	w.WriteString(`{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		enc.Encode(event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent}})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileBudget decodes a gzipped pprof CPU profile and sums CPU time by
// layer (see perLayer for the attribution rule).
func profileBudget(gz []byte) (map[string]time.Duration, int, error) {
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
	budget := map[string]time.Duration{}
	samples := 0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		samples++
		budget[p.layerOf(s.locs)] += time.Duration(s.values[len(s.values)-1])
	}
	return budget, samples, nil
}

// layerOf attributes a stack (leaf first) to a layer.
func (p *profile) layerOf(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			pkg := packageOf(p.strings[p.functions[fn]])
			switch {
			case strings.HasPrefix(pkg, "vrex/"):
				return pkg[strings.LastIndexByte(pkg, '/')+1:]
			case pkg == "main":
				return "bench"
			case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
				return "runtime"
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "vrex/internal/core.(*ReSV).SelectTokens" or "runtime.mallocgc".
func packageOf(sym string) string {
	if i := strings.IndexAny(sym, "[("); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	if i := strings.IndexByte(sym[slash+1:], '.'); i >= 0 {
		return sym[:slash+1+i]
	}
	return sym
}

// profile is the part of a pprof profile the budget needs.
type profile struct {
	samples []sample
	// locations maps a location id to its function ids, innermost inlined
	// call first.
	locations map[uint64][]uint64
	// functions maps a function id to its name's string-table index.
	functions map[uint64]int64
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the protobuf encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto), keeping samples,
// locations, functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, data)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
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
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field's values, whether it came
// packed (data) or as a single varint (v).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or, for length-delimited fields, its bytes
// (non-nil, possibly empty). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
