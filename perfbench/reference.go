package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// reference is a fixed CPU kernel the benchmark interleaves with the
// operations it measures, and its median CPU time is the unit of the
// end-to-end time metrics. The machines this benchmark runs on share their
// cores with other guests, and a core's speed drifts by a fifth or more over
// tens of seconds; the program and the reference slow down together, so
// their ratio holds still where either time alone does not.
//
// The kernel calls only the standard library and mixes what the workloads
// do: a sort (branches and memory) and map updates (hashing) like the
// serving engine; four-way float32 dot products, exponentials, and row
// gathers from a table larger than the per-core L2 cache like the attention
// kernels reading weights and KV rows. It allocates nothing and is timed on
// its own thread, so garbage the program leaves behind is never charged to
// it.
type reference struct {
	src, buf []float64
	xs, ys   []float32
	m        map[int]float64
	// table is refTableRows rows of refRow floats. Run n gathers
	// refGathers rows at a large fixed stride from a start that moves with
	// n, so the rows come from beyond the L2 cache whatever ran before.
	table []float32
	runs  int
	sink  float64
}

const (
	refRow       = 64
	refTableRows = 1 << 15 // 8 MiB of float32
	refGathers   = 1024
)

func newReference() *reference {
	r := &reference{
		src: make([]float64, 2048), buf: make([]float64, 2048),
		xs: make([]float32, 4096), ys: make([]float32, 4096),
		m:     make(map[int]float64, 512),
		table: make([]float32, refTableRows*refRow),
	}
	v := uint64(88172645463325252)
	next := func() uint64 {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		return v
	}
	for i := range r.src {
		r.src[i] = float64(next()%1000003) / 7
	}
	for i := range r.xs {
		x := next()
		r.xs[i] = float32(x%2001)/1000 - 1
		r.ys[i] = float32(x%1999)/1000 - 1
	}
	for i := range r.table {
		r.table[i] = float32(next()%2003)/1000 - 1
	}
	return r
}

// run executes the kernel once and returns the CPU time it took.
func (r *reference) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := clock(clockThreadCPUTime)
	copy(r.buf, r.src)
	slices.Sort(r.buf)
	clear(r.m)
	for i, v := range r.buf {
		r.m[i%512] += v
	}
	var sum float64
	for k := 0; k < 16; k++ {
		sum += dot4(r.xs, r.ys)
	}
	for _, x := range r.xs {
		sum += math.Exp(float64(x))
	}
	for i := 0; i < refGathers; i++ {
		row := (i*7919 + r.runs*refGathers) % refTableRows * refRow
		q := i % 64 * refRow
		sum += dot4(r.table[row:row+refRow], r.xs[q:q+refRow])
	}
	r.runs++
	r.sink += sum + r.m[7]
	return clock(clockThreadCPUTime) - c0
}

// median runs the kernel n times and returns its median CPU time in
// nanoseconds.
func (r *reference) median(n int) float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(r.run())
	}
	slices.Sort(ts)
	return quantile(ts, 0.5)
}

// dot4 is a dot product with four independent accumulators, the shape of
// the attention kernels' inner loop.
func dot4(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	for i := 0; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	return s0 + s1 + s2 + s3
}
