package hashbit

import (
	"math"
	"testing"
	"testing/quick"

	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

func TestSignatureBits(t *testing.T) {
	s := make(Signature, SignatureWords(100))
	s.SetBit(0)
	s.SetBit(63)
	s.SetBit(64)
	s.SetBit(99)
	for i := 0; i < 100; i++ {
		want := i == 0 || i == 63 || i == 64 || i == 99
		if s.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, s.Bit(i), want)
		}
	}
}

func TestSignatureWords(t *testing.T) {
	cases := map[int]int{1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for bits, want := range cases {
		if got := SignatureWords(bits); got != want {
			t.Errorf("SignatureWords(%d) = %d, want %d", bits, got, want)
		}
	}
}

func TestHammingBasics(t *testing.T) {
	a := make(Signature, 1)
	b := make(Signature, 1)
	if Hamming(a, b) != 0 {
		t.Fatal("identical sigs should have distance 0")
	}
	b.SetBit(3)
	b.SetBit(17)
	if Hamming(a, b) != 2 {
		t.Fatal("expected distance 2")
	}
}

func TestHammingSymmetryAndTriangle(t *testing.T) {
	f := func(x, y, z uint64) bool {
		a, b, c := Signature{x}, Signature{y}, Signature{z}
		if Hamming(a, b) != Hamming(b, a) {
			return false
		}
		return Hamming(a, c) <= Hamming(a, b)+Hamming(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignOperatorRule(t *testing.T) {
	// Paper rule: x <= 0 -> 0, x > 0 -> 1.
	s := Sign([]float32{-1, 0, 0.001, 5})
	want := []bool{false, false, true, true}
	for i, w := range want {
		if s.Bit(i) != w {
			t.Fatalf("Sign bit %d = %v, want %v", i, s.Bit(i), w)
		}
	}
}

func TestHasherDeterministic(t *testing.T) {
	keys := tensor.NewMatrix(4, 16)
	keys.Randomize(mathx.NewRNG(9), 1)
	h1 := NewHasher(16, 32, mathx.NewRNG(1))
	h2 := NewHasher(16, 32, mathx.NewRNG(1))
	s1 := h1.HashKeys(keys)
	s2 := h2.HashKeys(keys)
	for i := range s1 {
		if Hamming(s1[i], s2[i]) != 0 {
			t.Fatal("same-seed hashers disagree")
		}
	}
}

func TestIdenticalKeysZeroDistance(t *testing.T) {
	h := NewHasher(32, 32, mathx.NewRNG(2))
	rng := mathx.NewRNG(3)
	key := make([]float32, 32)
	for i := range key {
		key[i] = rng.Norm32()
	}
	a := h.HashVector(key)
	b := h.HashVector(key)
	if Hamming(a, b) != 0 {
		t.Fatal("identical keys must hash identically")
	}
}

func TestOppositeKeysMaxDistance(t *testing.T) {
	h := NewHasher(32, 64, mathx.NewRNG(4))
	rng := mathx.NewRNG(5)
	key := make([]float32, 32)
	neg := make([]float32, 32)
	for i := range key {
		key[i] = rng.Norm32()
		neg[i] = -key[i]
	}
	d := Hamming(h.HashVector(key), h.HashVector(neg))
	// Antipodal vectors should flip every hyperplane sign (ties at exactly 0
	// projection are measure-zero).
	if d < 60 {
		t.Fatalf("antipodal distance = %d, want ~64", d)
	}
}

// TestHammingTracksCosine reproduces the Fig. 7(b) relationship: Hamming
// distance of 32-bit signatures correlates strongly (negatively) with cosine
// similarity across random key pairs.
func TestHammingTracksCosine(t *testing.T) {
	const dim, nbits, pairs = 64, 32, 400
	h := NewHasher(dim, nbits, mathx.NewRNG(6))
	rng := mathx.NewRNG(7)
	var cos, ham []float64
	for p := 0; p < pairs; p++ {
		a := make([]float32, dim)
		b := make([]float32, dim)
		for i := range a {
			a[i] = rng.Norm32()
		}
		// Interpolate b between a and an independent vector to cover the
		// whole similarity range.
		alpha := rng.Float32()
		for i := range b {
			b[i] = alpha*a[i] + (1-alpha)*rng.Norm32()
		}
		cos = append(cos, mathx.CosineSimilarity(a, b))
		ham = append(ham, float64(Hamming(h.HashVector(a), h.HashVector(b))))
	}
	r := mathx.PearsonCorrelation(cos, ham)
	if r > -0.7 {
		t.Fatalf("correlation between cosine and hamming = %v, want <= -0.7 (paper: |r|~0.8)", r)
	}
}

func TestHCTableSingleCluster(t *testing.T) {
	tab := NewHCTable(4)
	sig := make(Signature, 1)
	sig.SetBit(1)
	key := []float32{1, 2}
	id0, d0 := tab.Insert(0, key, sig)
	if id0 != 0 || d0 != 0 {
		t.Fatalf("first insert: id=%d d=%d", id0, d0)
	}
	near := sig.Clone()
	near.SetBit(5) // distance 1 < ThHD
	id1, d1 := tab.Insert(1, []float32{3, 4}, near)
	if id1 != 0 || d1 != 1 {
		t.Fatalf("second insert should join cluster 0: id=%d d=%d", id1, d1)
	}
	c := tab.Clusters[0]
	if c.Count() != 2 {
		t.Fatal("cluster count wrong")
	}
	if c.RepKey[0] != 2 || c.RepKey[1] != 3 {
		t.Fatalf("running mean wrong: %v", c.RepKey)
	}
}

func TestHCTableNewClusterBeyondThreshold(t *testing.T) {
	tab := NewHCTable(2)
	a := make(Signature, 1)
	b := make(Signature, 1)
	for i := 0; i < 10; i++ {
		b.SetBit(i)
	}
	tab.Insert(0, []float32{1}, a)
	id, _ := tab.Insert(1, []float32{2}, b)
	if id != 1 {
		t.Fatal("distant signature should create new cluster")
	}
	if tab.NumClusters() != 2 || tab.NumTokens() != 2 {
		t.Fatal("table counters wrong")
	}
}

func TestHCTableThresholdIsStrict(t *testing.T) {
	// Paper: distances below Th_hd are clustered; distance == Th_hd is not.
	tab := NewHCTable(3)
	a := make(Signature, 1)
	tab.Insert(0, []float32{0}, a)
	b := make(Signature, 1)
	b.SetBit(0)
	b.SetBit(1)
	b.SetBit(2) // distance exactly 3
	id, _ := tab.Insert(1, []float32{0}, b)
	if id != 1 {
		t.Fatal("distance == ThHD must not join (strict <)")
	}
}

func TestHCTableNearestWins(t *testing.T) {
	tab := NewHCTable(10)
	s0 := make(Signature, 1) // all zeros
	s1 := make(Signature, 1)
	for i := 0; i < 8; i++ {
		s1.SetBit(i)
	}
	tab.Insert(0, []float32{0}, s0)
	tab.Insert(1, []float32{0}, s1)
	probe := make(Signature, 1)
	probe.SetBit(0) // distance 1 from s0, 7 from s1
	id, d := tab.Insert(2, []float32{0}, probe)
	if id != 0 || d != 1 {
		t.Fatalf("nearest cluster should win: id=%d d=%d", id, d)
	}
}

func TestHCTableTokensOf(t *testing.T) {
	tab := NewHCTable(1)
	s := make(Signature, 1)
	tab.Insert(10, []float32{0}, s)
	tab.Insert(11, []float32{0}, s)
	far := make(Signature, 1)
	far.SetBit(0)
	far.SetBit(1)
	tab.Insert(12, []float32{0}, far)
	got := tab.TokensOf([]int{0, 1})
	want := []int{10, 11, 12}
	if len(got) != 3 {
		t.Fatalf("TokensOf = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TokensOf = %v, want %v", got, want)
		}
	}
}

func TestHCTableClusterOf(t *testing.T) {
	tab := NewHCTable(1)
	s := make(Signature, 1)
	tab.Insert(5, []float32{0}, s)
	if tab.ClusterOf(5) != 0 {
		t.Fatal("ClusterOf known token wrong")
	}
	if tab.ClusterOf(99) != -1 {
		t.Fatal("ClusterOf unknown token should be -1")
	}
}

func TestClustererGroupsSimilarFrames(t *testing.T) {
	// Two nearly identical frames should land mostly in shared clusters;
	// a third orthogonal frame should open new ones.
	const dim, tokens = 32, 16
	rng := mathx.NewRNG(8)
	c := NewClusterer(dim, 32, 7, rng.Split())
	f1 := tensor.NewMatrix(tokens, dim)
	f1.Randomize(rng, 1)
	f2 := f1.Clone()
	for i := range f2.Data {
		f2.Data[i] += rng.Norm32() * 0.02 // tiny temporal drift
	}
	f3 := tensor.NewMatrix(tokens, dim)
	f3.Randomize(rng, 1)

	c.AddFrame(f1, 0)
	n1 := c.Table.NumClusters()
	c.AddFrame(f2, tokens)
	n2 := c.Table.NumClusters()
	if n2-n1 > tokens/4 {
		t.Fatalf("similar frame created %d new clusters (of %d tokens)", n2-n1, tokens)
	}
	c.AddFrame(f3, 2*tokens)
	n3 := c.Table.NumClusters()
	if n3-n2 < tokens/2 {
		t.Fatalf("dissimilar frame only created %d new clusters", n3-n2)
	}
}

func TestClustererAssignmentsConsistent(t *testing.T) {
	rng := mathx.NewRNG(10)
	c := NewClusterer(16, 32, 7, rng.Split())
	keys := tensor.NewMatrix(8, 16)
	keys.Randomize(rng, 1)
	ids := c.AddFrame(keys, 100)
	for i, id := range ids {
		if c.Table.ClusterOf(100+i) != id {
			t.Fatal("AddFrame return values disagree with table state")
		}
	}
	if c.CompressionRatio() <= 0 {
		t.Fatal("compression ratio should be positive")
	}
}

func TestMemoryOverheadGrowsWithClusters(t *testing.T) {
	tab := NewHCTable(0) // every token its own cluster
	s := make(Signature, 1)
	before := tab.MemoryOverheadBytes(64, 32)
	for i := 0; i < 10; i++ {
		sig := s.Clone()
		for b := 0; b <= i; b++ {
			sig.SetBit(b)
		}
		tab.Insert(i, make([]float32, 64), sig)
	}
	after := tab.MemoryOverheadBytes(64, 32)
	if after <= before {
		t.Fatal("overhead should grow with clusters")
	}
}

// TestHammingAngleEstimate checks the LSH property quantitatively: the
// expected bit-disagreement fraction equals angle/pi.
func TestHammingAngleEstimate(t *testing.T) {
	const dim = 48
	const nbits = 512 // many planes for a tight estimate
	h := NewHasher(dim, nbits, mathx.NewRNG(11))
	rng := mathx.NewRNG(12)
	a := make([]float32, dim)
	b := make([]float32, dim)
	for i := range a {
		a[i] = rng.Norm32()
		b[i] = rng.Norm32()
	}
	cos := mathx.CosineSimilarity(a, b)
	angle := math.Acos(cos)
	d := Hamming(h.HashVector(a), h.HashVector(b))
	got := float64(d) / nbits
	want := angle / math.Pi
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("disagreement fraction %v, want ~%v", got, want)
	}
}
