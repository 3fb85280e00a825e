package hashbit

import (
	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

// Clusterer bundles a Hasher with an HCTable into the complete streaming
// hash-bit key clustering pipeline of Fig. 8: each arriving frame's key
// matrix is projected, binarised and folded into the cluster table.
type Clusterer struct {
	Hasher *Hasher
	Table  *HCTable
	// sigs holds one frame's signatures, SignatureWords(Hasher.NBits) words
	// per key, reused from frame to frame (it grows on first use).
	sigs []uint64
}

// NewClusterer builds a clusterer for dim-dimensional keys with nbits
// hyperplanes and Hamming threshold thHD.
func NewClusterer(dim, nbits, thHD int, rng *mathx.RNG) *Clusterer {
	return &Clusterer{
		Hasher: NewHasher(dim, nbits, rng),
		Table:  NewHCTable(thHD),
	}
}

// AddFrame clusters every row of keys, assigning global token indices
// baseTokenIdx, baseTokenIdx+1, ... New tokens may join clusters created
// earlier in the same frame (the paper's "combined Key cluster hash-bit"
// includes current-frame bits). The frame's signatures are signed into a
// buffer the clusterer reuses.
func (c *Clusterer) AddFrame(keys *tensor.Matrix, baseTokenIdx int) {
	w := SignatureWords(c.Hasher.NBits)
	if cap(c.sigs) < keys.Rows*w {
		c.sigs = make([]uint64, keys.Rows*w)
	}
	sigs := c.sigs[:keys.Rows*w]
	signRows(sigs, c.Hasher.Project(keys))
	for i := 0; i < keys.Rows; i++ {
		c.Table.Insert(baseTokenIdx+i, keys.Row(i), sigs[i*w:(i+1)*w])
	}
}

// Reset clears the cluster table and redraws the hyperplanes from rng,
// reusing the existing hasher and table storage. A clusterer reset with the
// same rng stream as NewClusterer consumed behaves exactly like a freshly
// constructed one.
func (c *Clusterer) Reset(rng *mathx.RNG) {
	c.Hasher.Reseed(rng)
	c.Table.Reset()
}
