// Command perfbench is the repository benchmark. It generates one workload's
// inputs from --seed, sets the workload up several times, then runs its
// operations back to back for --seconds of wall time: a closed loop with a
// single client, because the simulator is a batch tool whose user waits for
// each result. Every operation's output is checked, and the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off:
//
//   - op_cpu_p50_ref, op_cpu_p90_ref: the median and 90th percentile of one
//     operation's host CPU time, in units of the reference kernel (see
//     reference.go) measured in the same run;
//   - frames_per_ref: video frames processed per reference unit of CPU;
//   - setup_s: the median CPU seconds of one set-up, scaled to a machine on
//     which the reference kernel takes refNominal (timing the reference
//     before each set-up). That removes the same drift as the ref unit
//     while keeping seconds as the unit. Set-up is only the program's own
//     preparation: parsing and compiling the scenarios, or generating the
//     videos and building the model and ReSV. The benchmark's fixed-input
//     checks run afterwards, untimed.
//
// CPU time counts every thread of the process, so garbage collection is
// part of an operation's cost. Wall time is not used: on a machine whose
// cores are shared with other guests it also counts the moments the core
// ran someone else, which made wall-clock percentiles vary by half between
// runs.
//
// With --trace 1 the benchmark records spans around the calls it makes
// into each layer and a CPU profile, and reports per-layer host time and
// counts instead (see trace.go).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload resv-stream --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"vrex/internal/tensor"
)

// suite is one workload with its inputs prepared.
type suite interface {
	// op runs operation i and returns the number of video frames it
	// processed.
	op(i int, tr *tracer) (frames int)
	// check verifies the output of the operation op last ran. It is not
	// timed.
	check() error
	// verify runs the program on fixed inputs, independent of the seed, and
	// compares its outputs with values committed in this benchmark. It runs
	// once, after set-up, and is not timed.
	verify() error
	// unit is the number of operations that make one whole input; a run
	// always ends on a unit boundary, so every position within a unit is
	// sampled alike.
	unit() int
	// counts adds the workload's per-layer counters over ops operations.
	counts(m metrics, ops int)
}

// workloads maps each --workload name to the constructor that generates its
// inputs from the seed. BENCHMARK.json records why each one exists.
var workloads = map[string]func(seed uint64) (suite, error){
	"resv-stream":   newResvStream,
	"serve-suite":   newServeSuite,
	"cluster-fault": newClusterFault,
}

// setupRuns is how many times set-up is repeated; setup_s is their median.
const setupRuns = 9

// refNominal is about the reference kernel's median CPU time on the 2-vCPU
// Intel Xeon virtual machine this benchmark was tuned on.
const refNominal = 700 * time.Microsecond

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: resv-stream, serve-suite or cluster-fault")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "wall seconds of operations to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	newSuite, ok := workloads[*name]
	if !ok || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload resv-stream|serve-suite|cluster-fault, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*name, newSuite, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, newSuite func(uint64) (suite, error), seed uint64, dur time.Duration, traced bool) (result, error) {
	// One worker everywhere: the benchmark measures the single-core host cost
	// of each layer, and every simulated result is identical for any worker
	// count.
	tensor.SetWorkers(1)

	ref := newReference()
	var s suite
	setup := make([]float64, setupRuns)
	for k := range setup {
		s = nil
		runtime.GC()
		// Time the reference right before each set-up, so both see the
		// same machine speed.
		unit := ref.median(5)
		c0 := cpuTime()
		var err error
		if s, err = newSuite(seed); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		setup[k] = (cpuTime() - c0).Seconds() * float64(refNominal) / unit
	}
	if err := s.verify(); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	runtime.GC()

	var tr *tracer
	if traced {
		tr = newTracer()
		if err := tr.start(); err != nil {
			return result{}, err
		}
	}
	var lat, refLat []float64
	frames, failed := 0, 0
	var busy, refBusy time.Duration
	t0 := time.Now()
	for i := 0; i%s.unit() != 0 || i == 0 || time.Since(t0) < dur; i++ {
		// Keep the reference at about a tenth of the measured CPU time. A
		// traced run skips it, so the CPU profile holds only the program.
		if !traced && refBusy*10 <= busy {
			d := ref.run()
			refBusy += d
			refLat = append(refLat, float64(d))
		}
		root := tr.begin("op")
		c0 := cpuTime()
		frames += s.op(i, tr)
		d := cpuTime() - c0
		tr.end(root)
		busy += d
		lat = append(lat, float64(d))
		if err := s.check(); err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", name, i, err)
			}
		}
	}
	ops := len(lat)
	res := result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: metrics{}}
	if traced {
		if err := tr.stop(); err != nil {
			return result{}, err
		}
		if err := tr.report(res.Metrics, ops, busy); err != nil {
			return result{}, err
		}
		s.counts(res.Metrics, ops)
		if err := tr.write(fmt.Sprintf("%s-%d", name, seed)); err != nil {
			return result{}, err
		}
		return res, nil
	}
	if ops < 100 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d operations; op_cpu_p90_ref has fewer than 10 samples above it\n", ops)
	}
	slices.Sort(lat)
	slices.Sort(refLat)
	unit := quantile(refLat, 0.5)
	res.Metrics.set("op_cpu_p50_ref", quantile(lat, 0.5)/unit, "ref")
	res.Metrics.set("op_cpu_p90_ref", quantile(lat, 0.9)/unit, "ref")
	res.Metrics.set("frames_per_ref", float64(frames)/(float64(busy)/unit), "1/ref")
	slices.Sort(setup)
	res.Metrics.set("setup_s", quantile(setup, 0.5), "s")
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops, %d frames in %.2f CPU s; op p50 %.3f ms, reference %.3f ms over %d runs\n",
		name, seed, ops, frames, busy.Seconds(), quantile(lat, 0.5)/1e6, unit/1e6, len(refLat))
	return res, nil
}

// cpuTime returns the CPU time all threads of the process have used so far.
func cpuTime() time.Duration { return clock(clockProcessCPUTime) }

// Linux clock ids for clock_gettime, which package syscall does not name.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // only an invalid clock id or pointer makes it fail
	}
	return time.Duration(ts.Nano())
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
