package model

import (
	"math"
	"testing"

	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

// refAddWeighted is attention's value loop before the value sum became a
// kernel, kept here to pin addWeighted: each candidate's weighted value row
// is added in candidate order, and a zero weight is skipped.
func refAddWeighted(oh, w, vals []float32) {
	n := len(oh)
	for ci, wc := range w {
		if wc == 0 {
			continue
		}
		vrow := vals[ci*n : (ci+1)*n]
		for d := range oh {
			oh[d] += wc * vrow[d]
		}
	}
}

// canary sits just past the output row in TestAddWeightedMatchesLoop: a
// kernel that writes beyond its row changes it. It is finite, because
// arithmetic on a NaN canary could leave its bits as they were.
const canary float32 = -1234.5

// offsetRow returns n values drawn by draw that start off elements into a
// fresh buffer, so off 1-3 misaligns them, and the buffer element just past
// them, which holds canary.
func offsetRow(n, off int, draw func() float32) ([]float32, *float32) {
	buf := make([]float32, off+n+1)
	for i := range buf[:off+n] {
		buf[i] = draw()
	}
	buf[off+n] = canary
	return buf[off : off+n : off+n], &buf[off+n]
}

// TestAddWeightedMatchesLoop pins addWeighted to the loop it replaced, bit
// for bit (any two NaNs equal), at every row width from 0 to 70 (every
// column block and tail of the kernel) and several candidate counts, with
// the output, weights and values starting at every offset 0-3 from an
// allocation. Weights include +0 and -0, which are skipped, and NaN, which
// is not; value rows include -0, ±Inf and NaN. Nothing past the output row
// may be written.
func TestAddWeightedMatchesLoop(t *testing.T) {
	rng := mathx.NewRNG(17)
	nan := float32(math.NaN())
	weightSpecials := []float32{0, float32(math.Copysign(0, -1)), nan}
	valueSpecials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), nan}
	pick := func(specials []float32, p float64, draw func() float32) func() float32 {
		return func() float32 {
			if rng.Float64() < p {
				return specials[rng.Intn(len(specials))]
			}
			return draw()
		}
	}
	weight := pick(weightSpecials, 0.3, func() float32 { return rng.Float32() })
	for n := 0; n <= 70; n++ {
		for _, nc := range []int{0, 1, 3, 17, 64} {
			for off := 0; off < 4; off++ {
				value := pick(valueSpecials, 0.5/float64(nc+1), rng.Norm32)
				w, _ := offsetRow(nc, (off+1)%4, weight)
				vals, _ := offsetRow(nc*n, (off+2)%4, value)
				oh, guard := offsetRow(n, off, rng.Norm32)
				want := append([]float32(nil), oh...)
				refAddWeighted(want, w, vals)
				addWeighted(oh, w, vals)
				for d := range want {
					g, x := oh[d], want[d]
					if math.Float32bits(g) != math.Float32bits(x) && !(math.IsNaN(float64(g)) && math.IsNaN(float64(x))) {
						t.Fatalf("width %d, %d candidates, offset %d: column %d is %v, loop gives %v", n, nc, off, d, g, x)
					}
				}
				if math.Float32bits(*guard) != math.Float32bits(canary) {
					t.Fatalf("width %d, %d candidates, offset %d: wrote past the output row", n, nc, off)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("addWeighted with a short value block did not panic")
		}
	}()
	addWeighted(make([]float32, 16), make([]float32, 3), make([]float32, 47))
}

// TestCachedKeysMatchTiedKeyProjection rebuilds the key path the model had
// before keys were taken from the queries: an explicit MatMul by wq's
// leading KVDim columns, then rotary over KVHeads heads. Every cached key of
// every layer must equal it bit for bit, with KVHeads = Heads and with
// KVHeads = Heads/2.
func TestCachedKeysMatchTiedKeyProjection(t *testing.T) {
	for _, kvHeads := range []int{4, 2} {
		cfg := DefaultConfig()
		cfg.KVHeads = kvHeads
		chunks := []*tensor.Matrix{testInput(5, cfg.Dim, 21), testInput(3, cfg.Dim, 22)}
		m := New(cfg)
		for _, x := range chunks {
			m.Forward(x, DenseRetriever{}, StageFrame, false)
		}
		for l, lw := range m.layers {
			// A model with l layers draws the same weights for them, so the
			// hidden states it returns are layer l's inputs.
			in := chunks
			if l > 0 {
				pcfg := cfg
				pcfg.Layers = l
				prefix := New(pcfg)
				in = nil
				for _, x := range chunks {
					in = append(in, prefix.Forward(x, DenseRetriever{}, StageFrame, false).Hidden)
				}
			}
			wk := tensor.NewMatrix(cfg.Dim, cfg.KVDim())
			for i := 0; i < cfg.Dim; i++ {
				copy(wk.Row(i), lw.wq.Row(i)[:cfg.KVDim()])
			}
			base := 0
			for _, x := range in {
				k := tensor.MatMul(tensor.RMSNorm(x, lw.attnGain, 1e-6), wk)
				m.applyRotary(k, cfg.KVHeads, base)
				for i := 0; i < k.Rows; i++ {
					got := m.Cache(l).Key(base + i)
					for d, want := range k.Row(i) {
						if math.Float32bits(got[d]) != math.Float32bits(want) {
							t.Fatalf("KVHeads %d, layer %d, token %d, column %d: cached key %v, key projection %v", kvHeads, l, base+i, d, got[d], want)
						}
					}
				}
				base += x.Rows
			}
		}
	}
}
