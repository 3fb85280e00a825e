package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"vrex/internal/model"
	"vrex/internal/tensor"
	"vrex/internal/workload"
)

// TestReSVStatsPinned streams resv-stream's verify session (workload seed 1,
// session 0, 128 frames, stream seed 7920) through the default model and
// ReSV at one and four workers, and requires exactly the statistics the
// row-sharded selection must keep: every token, row and call count, the
// per-layer and per-head selections, and ExaminedFraction's float64 bits.
// The goldens print three digits and the benchmark's check reads only the
// selected-token count and the hidden states, so this is where PerHead and
// the examined fraction are pinned. It also requires the benchmark's chained
// hidden-state digest (hiddenDigest), which pins every bit of the forward
// pass: attention's scores and softmax, the FFN and the norms.
func TestReSVStatsPinned(t *testing.T) {
	mcfg := model.DefaultConfig()
	wcfg := workload.DefaultConfig()
	wcfg.Frames = 128
	wcfg.Queries = 0
	wcfg.Seed = 1
	wcfg.Stream.Seed = 7920
	frames := workload.NewGenerator(wcfg, mcfg.Dim).Session(workload.TaskStep, 0).FrameEmbeds
	const (
		selected, candidate = 63597, 325120
		rows, calls         = 20320, 508
		examinedBits        = 0x401c228f55d54e38
		digest              = 0x87caa204721b78bb
	)
	perLayer := []int64{14313, 17113, 15880, 16291}
	perHead := []int64{18893, 21403, 21285, 20306}
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		m, r := model.New(mcfg), New(mcfg, cfg)
		h := fnv.New64a()
		for _, f := range frames {
			binary.Write(h, binary.LittleEndian, hiddenDigest(m.Forward(f, r, model.StageFrame, false).Hidden))
		}
		if d := h.Sum64(); d != digest {
			t.Errorf("workers %d: hidden-state digest %#x, want %#x", workers, d, uint64(digest))
		}
		st := r.Stats()
		fs := st.Frame
		if fs.SelectedTokens != selected || fs.CandidateTokens != candidate || fs.Rows != rows || fs.Calls != calls {
			t.Errorf("workers %d: frame stats %+v, want %d selected of %d, %d rows, %d calls", workers, fs, selected, candidate, rows, calls)
		}
		if b := math.Float64bits(fs.ExaminedFraction); b != examinedBits {
			t.Errorf("workers %d: ExaminedFraction %v (bits %#x), want bits %#x", workers, fs.ExaminedFraction, b, uint64(examinedBits))
		}
		if st.Text != (StageStats{}) {
			t.Errorf("workers %d: text stats %+v, want none", workers, st.Text)
		}
		check := func(name string, got []Ratio, want []int64, cand int64) {
			sel := make([]int64, len(got))
			for i, r := range got {
				sel[i] = r.Selected
				if r.Candidate != cand {
					t.Errorf("workers %d: %s[%d] candidates %d, want %d", workers, name, i, r.Candidate, cand)
				}
			}
			if !slices.Equal(sel, want) {
				t.Errorf("workers %d: %s selected %v, want %v", workers, name, sel, want)
			}
		}
		check("PerLayer", st.PerLayer, perLayer, candidate/int64(mcfg.Layers))
		check("PerHead", st.PerHead, perHead, candidate)
	}
}

// hiddenDigest is the benchmark's per-frame digest: FNV-64a over the
// hidden states' float32 bits, little-endian, with the low bit set.
func hiddenDigest(m *tensor.Matrix) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64() | 1
}
