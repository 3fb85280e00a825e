// Package hashbit implements ReSV's first stage, hash-bit key clustering
// (Fig. 8 of the paper): random-hyperplane signatures of key vectors, Hamming
// distance between signatures, and the streaming hash-cluster (HC) table that
// groups spatially/temporally similar tokens across video frames.
//
// The signature of a key is the sign pattern of its projection onto N_hp
// random hyperplanes. By the random-hyperplane LSH property, the Hamming
// distance between two signatures is proportional to the angle between the
// keys, so it tracks cosine similarity (the paper measures 0.8 correlation;
// TestHammingTracksCosine verifies the same behaviour here).
package hashbit

import (
	"math/bits"

	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

// Signature is a packed bit vector of hyperplane signs (little-endian within
// each word).
type Signature []uint64

// SignatureWords returns the number of uint64 words needed for nbits.
func SignatureWords(nbits int) int { return (nbits + 63) / 64 }

// SetBit sets bit i.
func (s Signature) SetBit(i int) { s[i/64] |= 1 << (uint(i) % 64) }

// Clone returns a copy of s.
func (s Signature) Clone() Signature {
	c := make(Signature, len(s))
	copy(c, s)
	return c
}

// Hamming returns the number of differing bits between a and b. This is the
// XOR-accumulate operation the HCU hardware unit executes. The signatures
// must have equal word length.
//
//vrex:noalloc
func Hamming(a, b Signature) int {
	if len(a) != len(b) {
		panic("hashbit: Hamming length mismatch")
	}
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// Hasher projects key vectors onto fixed random hyperplanes and binarises
// the result into Signatures. One Hasher is instantiated per decoder layer;
// the hyperplanes are drawn once (training-free) and reused for every frame.
type Hasher struct {
	// NBits is N_hp, the number of hyperplanes (signature length in bits).
	NBits int
	// Dim is the key embedding dimension.
	Dim int
	// planes is Dim x NBits: column j is hyperplane j's normal.
	planes *tensor.Matrix
}

// NewHasher creates a hasher with nbits hyperplanes for dim-dimensional keys,
// drawing the hyperplanes from rng (standard normal entries).
func NewHasher(dim, nbits int, rng *mathx.RNG) *Hasher {
	if dim <= 0 || nbits <= 0 {
		panic("hashbit: non-positive Hasher dimensions")
	}
	h := &Hasher{NBits: nbits, Dim: dim, planes: tensor.NewMatrix(dim, nbits)}
	h.planes.Randomize(rng, 1)
	return h
}

// Reseed redraws the hyperplanes from rng in place, consuming exactly the
// variates NewHasher would (session reset without reallocating the planes).
func (h *Hasher) Reseed(rng *mathx.RNG) {
	h.planes.Randomize(rng, 1)
}

// Project returns the reduced-dimension matrix Key_hp = keys x planes
// (N_tokens x NBits), the intermediate the paper calls hyperplane
// multiplication. Exposed separately because the LXE executes this matmul
// while the HCU only consumes the binarised result.
func (h *Hasher) Project(keys *tensor.Matrix) *tensor.Matrix {
	if keys.Cols != h.Dim {
		panic("hashbit: key dimension mismatch")
	}
	return tensor.MatMul(keys, h.planes)
}

// Sign binarises a projected matrix row into a Signature: entries > 0 map to
// bit 1, entries <= 0 map to bit 0 (the paper's exact rule).
func Sign(row []float32) Signature {
	s := make(Signature, SignatureWords(len(row)))
	for i, v := range row {
		if v > 0 {
			s.SetBit(i)
		}
	}
	return s
}

// HashKeys computes the signature of every row of keys.
func (h *Hasher) HashKeys(keys *tensor.Matrix) []Signature {
	proj := h.Project(keys)
	sigs := make([]Signature, keys.Rows)
	for i := range sigs {
		sigs[i] = Sign(proj.Row(i))
	}
	return sigs
}

// HashVector computes the signature of a single key vector.
func (h *Hasher) HashVector(key []float32) Signature {
	m := tensor.FromRows([][]float32{key})
	return h.HashKeys(m)[0]
}
