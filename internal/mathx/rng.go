// Package mathx provides deterministic randomness and small numeric
// utilities shared by the functional model, the ReSV algorithm and the
// experiment harness. All randomness in the repository flows through the
// splitmix64-based RNG defined here so every experiment is reproducible
// bit-for-bit from a seed.
package mathx

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is not safe for concurrent use; derive independent child
// generators with Split for parallel work.
type RNG struct {
	state uint64
	// spare holds a cached Gaussian variate from the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state at the time of the call.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponential variate with the given mean (see
// ExpFromUniform).
func (r *RNG) Exp(mean float64) float64 {
	return ExpFromUniform(r.Float64(), mean)
}

// ExpFromUniform maps a uniform draw in [0, 1) through the exponential
// inverse CDF, clamped strictly away from 0: a draw of exactly 0 would
// otherwise yield a zero inter-arrival gap or a zero-length session
// lifetime, producing simultaneous events whose heap order is only
// tie-break-dependent. The clamp is far below any simulated timescale, so
// every other draw is unchanged.
func ExpFromUniform(u, mean float64) float64 {
	d := -mean * math.Log(1-u)
	if d <= 0 {
		return mean * 1e-12
	}
	return d
}

// Float32 returns a uniform float32 in [0, 1).
//
//vrex:testonly tests in wicsum, hashbit and the root benchmarks draw data with it
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Norm returns a standard normal variate (Box-Muller).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		// u and v are 2*Float64()-1 from the same draw, computed exactly in
		// integers: written in floating point, arm64 fuses the doubling into
		// an FMA even with the product converted. The squares are converted
		// explicitly for the same reason, so every architecture draws
		// amd64's variates.
		u := float64(int64(r.Uint64()>>11)-1<<52) / (1 << 52)
		v := float64(int64(r.Uint64()>>11)-1<<52) / (1 << 52)
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return u * m
	}
}

// Norm32 returns a standard normal variate as float32.
func (r *RNG) Norm32() float32 { return float32(r.Norm()) }

// Perm returns a pseudo-random permutation of [0, n).
//
//vrex:testonly serve tests shuffle inputs with it
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
