package core

import (
	"reflect"
	"slices"
	"testing"

	"vrex/internal/kvcache"
	"vrex/internal/mathx"
	"vrex/internal/model"
	"vrex/internal/tensor"
	"vrex/internal/workload"
)

// shardedWorkers are the worker counts the equivalence tests compare with
// one worker: with 3 the last chunk of a call's rows is shorter than the
// others.
var shardedWorkers = []int{2, 3, 8}

// equivalenceFrames returns the 64 frames of a workload video that
// BenchmarkSelectTokens warms its session with, and one more frame of
// queries: a session long enough for SelectTokens calls past shardEntries.
func equivalenceFrames(dim int) []*tensor.Matrix {
	wcfg := workload.DefaultConfig()
	wcfg.Frames = 65
	wcfg.Queries = 0
	return workload.NewGenerator(wcfg, dim).Session(workload.TaskStep, 0).FrameEmbeds
}

// recordingReSV records every selection the model receives and the largest
// call's score entries (query rows x heads x candidate clusters).
type recordingReSV struct {
	*ReSV
	selections [][]int
	maxEntries int
}

func (r *recordingReSV) SelectTokens(layer int, cache *kvcache.LayerCache, queries *tensor.Matrix, base int, stage model.Stage) []int {
	sel := r.ReSV.SelectTokens(layer, cache, queries, base, stage)
	r.selections = append(r.selections, slices.Clone(sel))
	r.maxEntries = max(r.maxEntries, queries.Rows*r.modelCfg.Heads*r.HCTable(layer).PastClusters())
	return sel
}

// TestReSVParallelEquivalence drives identical sessions through a sequential
// (Workers=1) and sharded retrievers and requires exactly the same
// selections, statistics and clusters — the engine's core guarantee. The
// session is long enough that its calls shard their rows.
func TestReSVParallelEquivalence(t *testing.T) {
	mcfg := model.DefaultConfig()
	frames := equivalenceFrames(mcfg.Dim)
	run := func(workers int) *recordingReSV {
		cfg := DefaultConfig()
		cfg.Workers = workers
		m := model.New(mcfg)
		r := &recordingReSV{ReSV: New(mcfg, cfg)}
		for _, f := range frames[:64] {
			m.Forward(f, r, model.StageFrame, false)
		}
		m.Forward(frames[64], r, model.StageText, true)
		return r
	}
	seq := run(1)
	if seq.maxEntries < shardEntries {
		t.Fatalf("largest call scores %d entries, under the %d a call needs to shard", seq.maxEntries, shardEntries)
	}
	for _, w := range shardedWorkers {
		par := run(w)
		if !reflect.DeepEqual(*seq.Stats(), *par.Stats()) {
			t.Fatalf("workers %d: stats diverged:\nseq: %+v\npar: %+v", w, *seq.Stats(), *par.Stats())
		}
		if !reflect.DeepEqual(seq.selections, par.selections) {
			t.Fatalf("workers %d: selections diverged", w)
		}
		for l := 0; l < mcfg.Layers; l++ {
			a, b := seq.HCTable(l), par.HCTable(l)
			if a.NumClusters() != b.NumClusters() {
				t.Fatalf("workers %d: layer %d cluster count diverged: %d vs %d", w, l, a.NumClusters(), b.NumClusters())
			}
			for ci := range a.Clusters {
				if !reflect.DeepEqual(a.Clusters[ci].TokenIdxs, b.Clusters[ci].TokenIdxs) {
					t.Fatalf("workers %d: layer %d cluster %d membership diverged", w, l, ci)
				}
			}
		}
	}
}

// TestReSVSelectTokensEquivalence compares the raw selection lists of direct
// SelectTokens calls, which is where any ordering nondeterminism would
// surface first: every layer selects for a random 3-token query after each
// frame of the session.
func TestReSVSelectTokensEquivalence(t *testing.T) {
	mcfg := model.DefaultConfig()
	frames := equivalenceFrames(mcfg.Dim)[:64]
	collect := func(workers int) (*ReSV, [][]int) {
		cfg := DefaultConfig()
		cfg.Workers = workers
		m := model.New(mcfg)
		r := New(mcfg, cfg)
		var out [][]int
		for fi, f := range frames {
			m.Forward(f, r, model.StageFrame, false)
			q := frameInput(3, mcfg.Dim, mathx.NewRNG(uint64(100+fi)))
			for l := 0; l < mcfg.Layers; l++ {
				out = append(out, slices.Clone(r.SelectTokens(l, m.Cache(l), q, m.Pos(), model.StageText)))
			}
		}
		return r, out
	}
	rSeq, seq := collect(1)
	if n := 3 * mcfg.Heads * rSeq.HCTable(0).PastClusters(); n < shardEntries {
		t.Fatalf("last call scores %d entries, under the %d a call needs to shard", n, shardEntries)
	}
	for _, w := range shardedWorkers {
		rPar, par := collect(w)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("selections diverged between workers=1 and workers=%d", w)
		}
		if !reflect.DeepEqual(*rSeq.Stats(), *rPar.Stats()) {
			t.Fatalf("workers %d: stats diverged:\nseq: %+v\npar: %+v", w, *rSeq.Stats(), *rPar.Stats())
		}
	}
}
