package workload

import (
	"testing"

	"vrex/internal/mathx"
)

func TestTasksListAndNames(t *testing.T) {
	ts := Tasks()
	if len(ts) != 5 {
		t.Fatalf("want 5 task families, got %d", len(ts))
	}
	names := map[string]bool{}
	for _, task := range ts {
		names[task.String()] = true
	}
	for _, want := range []string{"Step", "Next", "Proc.", "Proc.+", "Task"} {
		if !names[want] {
			t.Errorf("missing task %q", want)
		}
	}
	if Task(99).String() == "" {
		t.Error("unknown task should still format")
	}
}

func TestNoiseOrdering(t *testing.T) {
	// Task recognition is the easiest (least noise); Proc.+ the hardest.
	if TaskTask.queryNoise() >= TaskStep.queryNoise() {
		t.Fatal("Task should be easier than Step")
	}
	if TaskProcPlus.queryNoise() <= TaskProc.queryNoise() {
		t.Fatal("Proc.+ should be harder than Proc.")
	}
}

func TestSessionShape(t *testing.T) {
	cfg := DefaultConfig()
	gen := NewGenerator(cfg, 64)
	s := gen.Session(TaskStep, 0)
	if len(s.FrameEmbeds) != cfg.Frames {
		t.Fatalf("frames = %d, want %d", len(s.FrameEmbeds), cfg.Frames)
	}
	if len(s.Queries) != cfg.Queries {
		t.Fatalf("queries = %d, want %d", len(s.Queries), cfg.Queries)
	}
	if s.TokensPerFrame() != cfg.Stream.TokensPerFrame {
		t.Fatal("tokens per frame wrong")
	}
	for _, q := range s.Queries {
		if q.Embeddings.Rows != cfg.QueryTokens || q.Embeddings.Cols != 64 {
			t.Fatalf("query shape %v", q.Embeddings)
		}
		if q.TargetScene < 0 || q.TargetScene > s.SceneOf[len(s.SceneOf)-1] {
			t.Fatalf("target scene %d out of range", q.TargetScene)
		}
	}
}

func TestSessionDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a := NewGenerator(cfg, 64).Session(TaskNext, 3)
	b := NewGenerator(cfg, 64).Session(TaskNext, 3)
	for f := range a.FrameEmbeds {
		for i := range a.FrameEmbeds[f].Data {
			if a.FrameEmbeds[f].Data[i] != b.FrameEmbeds[f].Data[i] {
				t.Fatal("sessions not deterministic")
			}
		}
	}
	for qi := range a.Queries {
		if a.Queries[qi].TargetScene != b.Queries[qi].TargetScene {
			t.Fatal("query targets not deterministic")
		}
	}
}

func TestSessionsVary(t *testing.T) {
	cfg := DefaultConfig()
	gen := NewGenerator(cfg, 64)
	a := gen.Session(TaskStep, 0)
	b := gen.Session(TaskStep, 1)
	same := true
	for i := range a.FrameEmbeds[0].Data {
		if a.FrameEmbeds[0].Data[i] != b.FrameEmbeds[0].Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different session indices should differ")
	}
}

func TestNextTaskTargetsLastScene(t *testing.T) {
	cfg := DefaultConfig()
	gen := NewGenerator(cfg, 64)
	for si := 0; si < 5; si++ {
		s := gen.Session(TaskNext, si)
		last := s.SceneOf[len(s.SceneOf)-1]
		for _, q := range s.Queries {
			if q.TargetScene != last {
				t.Fatalf("TaskNext should target last scene %d, got %d", last, q.TargetScene)
			}
		}
	}
}

func TestFrameOfToken(t *testing.T) {
	cfg := DefaultConfig()
	s := NewGenerator(cfg, 64).Session(TaskStep, 0)
	tpf := s.TokensPerFrame()
	if s.FrameOfToken(0) != 0 || s.FrameOfToken(tpf-1) != 0 || s.FrameOfToken(tpf) != 1 {
		t.Fatal("FrameOfToken mapping wrong")
	}
}

func TestQuerySignalAboveNoiseFloor(t *testing.T) {
	// The planted query must correlate with its evidence scene's embeddings
	// far more than with other scenes'.
	cfg := DefaultConfig()
	gen := NewGenerator(cfg, 64)
	hits, trials := 0, 0
	for si := 0; si < 8; si++ {
		s := gen.Session(TaskTask, si)
		for _, q := range s.Queries {
			// Mean |cosine| between query rows and each scene's tokens.
			nScenes := s.SceneOf[len(s.SceneOf)-1] + 1
			best, bestSim := -1, -2.0
			for sc := 0; sc < nScenes; sc++ {
				var sims []float64
				for f, fsc := range s.SceneOf {
					if fsc != sc {
						continue
					}
					fm := s.FrameEmbeds[f]
					for r := 0; r < fm.Rows; r++ {
						sims = append(sims, mathx.CosineSimilarity(q.Embeddings.Row(0), fm.Row(r)))
					}
				}
				if m, _ := mathx.Percentiles(sims, 90, 90); m > bestSim {
					best, bestSim = sc, m
				}
			}
			trials++
			if best == q.TargetScene {
				hits++
			}
		}
	}
	if frac := float64(hits) / float64(trials); frac < 0.6 {
		t.Fatalf("planted signal too weak: embedding-level hit rate %v", frac)
	}
}

func TestGeneratorPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGenerator(Config{}, 64)
}
