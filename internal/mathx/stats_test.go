package mathx

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSoftmaxSumsToOne(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	dst := make([]float32, 4)
	Softmax(dst, src, rowMax(src))
	var sum float64
	for _, v := range dst {
		sum += float64(v)
	}
	if !almostEq(sum, 1, 1e-5) {
		t.Fatalf("softmax sum = %v", sum)
	}
	for i := 1; i < len(dst); i++ {
		if dst[i] <= dst[i-1] {
			t.Fatalf("softmax not monotone for monotone input: %v", dst)
		}
	}
}

func TestSoftmaxStableForLargeInputs(t *testing.T) {
	src := []float32{1000, 1001, 1002}
	dst := make([]float32, 3)
	Softmax(dst, src, rowMax(src))
	for _, v := range dst {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax unstable: %v", dst)
		}
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	s := []float32{0.5, -0.5, 2}
	want := make([]float32, 3)
	Softmax(want, s, rowMax(s))
	Softmax(s, s, rowMax(s))
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("in-place softmax mismatch at %d", i)
		}
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	Softmax(nil, nil, 0) // must not panic
}

func TestSoftmaxPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Softmax(make([]float32, 2), make([]float32, 3), 0)
}

func TestExpNormalizeMaxIsOne(t *testing.T) {
	src := []float32{-3, 0, 5, 2}
	dst := make([]float32, 4)
	ExpNormalize(dst, src)
	var maxv float32
	for _, v := range dst {
		if v > maxv {
			maxv = v
		}
		if v <= 0 {
			t.Fatalf("ExpNormalize produced non-positive mass: %v", dst)
		}
	}
	if !almostEq(float64(maxv), 1, 1e-6) {
		t.Fatalf("max mass = %v, want 1", maxv)
	}
}

func TestExpNormalizePreservesOrder(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		// Bound magnitude to avoid inf in exp input difference.
		a = float32(math.Mod(float64(a), 50))
		b = float32(math.Mod(float64(b), 50))
		src := []float32{a, b}
		dst := make([]float32, 2)
		ExpNormalize(dst, src)
		if a < b {
			return dst[0] <= dst[1]
		}
		return dst[0] >= dst[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDot(t *testing.T) {
	got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6})
	if got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestCosineSimilaritySelf(t *testing.T) {
	v := []float32{0.3, -0.7, 2.5}
	if !almostEq(CosineSimilarity(v, v), 1, 1e-6) {
		t.Fatal("cos(v,v) != 1")
	}
}

func TestCosineSimilarityOrthogonal(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if !almostEq(CosineSimilarity(a, b), 0, 1e-9) {
		t.Fatal("orthogonal vectors should have cos 0")
	}
}

func TestCosineSimilarityZeroVector(t *testing.T) {
	if CosineSimilarity([]float32{0, 0}, []float32{1, 1}) != 0 {
		t.Fatal("zero vector should give 0")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if !almostEq(PearsonCorrelation(xs, ys), 1, 1e-12) {
		t.Fatal("perfectly correlated data should give 1")
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !almostEq(PearsonCorrelation(xs, neg), -1, 1e-12) {
		t.Fatal("anti-correlated data should give -1")
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if PearsonCorrelation([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero variance should give 0")
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	r := NewRNG(123)
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm()
			ys[i] = r.Norm()
		}
		c := PearsonCorrelation(xs, ys)
		if c < -1-1e-9 || c > 1+1e-9 {
			t.Fatalf("correlation out of bounds: %v", c)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}}
	for _, c := range cases {
		if got, _ := Percentiles(xs, c.p, 100); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentiles(%v, 100) = %v, want %v", c.p, got, c.want)
		}
	}
	if lo, hi := Percentiles(nil, 50, 90); lo != 0 || hi != 0 {
		t.Error("empty percentile should be 0")
	}
	if got, _ := Percentiles(xs, math.NaN(), 50); !math.IsNaN(got) {
		t.Errorf("Percentiles(NaN, 50) = %v, want NaN", got)
	}
}

// percentileBySort is the sort-based definition Percentiles must match: sort
// a copy (sort.Float64s puts NaNs first) and interpolate between the closest
// ranks, each product rounded on its own (converted explicitly, so that no
// architecture fuses it into an FMA with the subtraction or addition after it).
func percentileBySort(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	c := slices.Clone(xs)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := float64(p / 100 * float64(len(c)-1))
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return float64(c[lo]*(1-frac)) + float64(c[hi]*frac)
}

// TestPercentileMatchesSortReference: on random slices with many duplicates,
// signed zeros, infinities and NaNs, the selection-based Percentiles, for
// every pair of ranks in either order (equal ranks included), equals the
// sort-based definition (NaN matching NaN) and leaves its input as it was.
// PercentilesInPlace, on a copy of the same input, returns the same values
// and leaves the copy a permutation of the input: the same multiset of bit
// patterns.
func TestPercentileMatchesSortReference(t *testing.T) {
	rng := NewRNG(11)
	ps := []float64{-1, 0, 0.5, 10, 50, 90, 99, 99.9, 100, 101, math.NaN()}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(64)
		distinct := 1 + rng.Intn(n) // few distinct values: many duplicates
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(8) {
			case 0:
				xs[i] = specials[rng.Intn(len(specials))]
			case 1:
				xs[i] = rng.Norm()
			default:
				xs[i] = float64(rng.Intn(distinct))
			}
		}
		orig := slices.Clone(xs)
		origBits := sortedBits(orig)
		wants := make([]float64, len(ps))
		for i, p := range ps {
			wants[i] = percentileBySort(xs, p)
		}
		same := func(got, want float64) bool {
			return got == want || math.IsNaN(got) && math.IsNaN(want)
		}
		modified := func() bool {
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
					return true
				}
			}
			return false
		}
		for i, p := range ps {
			for j, q := range ps {
				gp, gq := Percentiles(xs, p, q)
				if !same(gp, wants[i]) || !same(gq, wants[j]) {
					t.Fatalf("Percentiles(%v, %v, %v) = %v, %v, sort reference says %v, %v", xs, p, q, gp, gq, wants[i], wants[j])
				}
				if modified() {
					t.Fatalf("Percentiles(_, %v, %v) modified its input: %v, was %v", p, q, xs, orig)
				}
				ys := slices.Clone(xs)
				gp, gq = PercentilesInPlace(ys, p, q)
				if !same(gp, wants[i]) || !same(gq, wants[j]) {
					t.Fatalf("PercentilesInPlace(%v, %v, %v) = %v, %v, sort reference says %v, %v", xs, p, q, gp, gq, wants[i], wants[j])
				}
				if !slices.Equal(sortedBits(ys), origBits) {
					t.Fatalf("PercentilesInPlace(_, %v, %v) left %v, not a permutation of %v", p, q, ys, orig)
				}
			}
		}
	}
}

// sortedBits returns xs's bit patterns in ascending order: two slices hold
// the same multiset of values, NaN payloads and zero signs included, exactly
// when their sortedBits are equal.
func sortedBits(xs []float64) []uint64 {
	b := make([]uint64, len(xs))
	for i, v := range xs {
		b[i] = math.Float64bits(v)
	}
	slices.Sort(b)
	return b
}
