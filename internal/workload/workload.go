// Package workload generates COIN-like streaming QA scenarios: instructional
// "videos" made of step-structured scenes, with multi-turn queries whose
// answers live in specific past scenes. The paper evaluates five COIN task
// families (Table II); here each family controls where the queried evidence
// sits and how noisy the query is, producing the per-task accuracy /
// retrieval-ratio spread the table reports.
//
// The average working scenario matches the paper's COIN statistics: 26
// frames, 25 question tokens, 39 answer tokens (Sec. III-A).
package workload

import (
	"fmt"

	"vrex/internal/mathx"
	"vrex/internal/tensor"
	"vrex/internal/vision"
)

// Task enumerates the five COIN benchmark families of Table II.
type Task int

const (
	// TaskStep is step recognition: the query references one specific past
	// step.
	TaskStep Task = iota
	// TaskNext is next-step prediction: evidence sits in the most recent
	// step.
	TaskNext
	// TaskProc is procedure segmentation: evidence in a mid-video step.
	TaskProc
	// TaskProcPlus is the harder procedure variant: evidence split across
	// an early step, with more query noise.
	TaskProcPlus
	// TaskTask is task recognition: evidence is global (any scene works),
	// the easiest family.
	TaskTask
)

// Tasks lists all five families in Table II column order.
func Tasks() []Task {
	return []Task{TaskStep, TaskNext, TaskProcPlus, TaskTask, TaskProc}
}

func (t Task) String() string {
	switch t {
	case TaskStep:
		return "Step"
	case TaskNext:
		return "Next"
	case TaskProc:
		return "Proc."
	case TaskProcPlus:
		return "Proc.+"
	case TaskTask:
		return "Task"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// queryNoise returns the query-construction noise level per family in units
// of the typical embedding norm (harder families have noisier queries; the
// signal gain is fixed at 1.5x, so SNR = 1.5/noise).
func (t Task) queryNoise() float64 {
	switch t {
	case TaskStep:
		return 0.6
	case TaskNext:
		return 0.4
	case TaskProc:
		return 0.8
	case TaskProcPlus:
		return 1.0
	default: // TaskTask
		return 0.3
	}
}

// Config shapes a generated session.
type Config struct {
	// Frames per session (paper average: 26).
	Frames int
	// QueryTokens per question (paper average: 25).
	QueryTokens int
	// AnswerTokens generated per question (paper average: 39).
	AnswerTokens int
	// Queries per session (multi-turn).
	Queries int
	// Stream configures the underlying synthetic video.
	Stream vision.StreamConfig
	// Seed drives query construction.
	Seed uint64
}

// DefaultConfig returns the paper's average COIN scenario.
func DefaultConfig() Config {
	sc := vision.DefaultStreamConfig()
	return Config{
		Frames:       26,
		QueryTokens:  25,
		AnswerTokens: 39,
		Queries:      3,
		Stream:       sc,
		Seed:         7,
	}
}

// Query is one question over the session history.
type Query struct {
	// Embeddings is QueryTokens x Dim, ready to feed the model.
	Embeddings *tensor.Matrix
	// TargetScene is the ground-truth scene holding the evidence.
	TargetScene int
	// Task is the family this query belongs to.
	Task Task
}

// Session is a fully materialised scenario: per-frame model-input embeddings
// plus queries with ground truth.
type Session struct {
	// FrameEmbeds[i] is frame i's model-input embeddings
	// (TokensPerFrame x Dim).
	FrameEmbeds []*tensor.Matrix
	// SceneOf[i] is frame i's scene id.
	SceneOf []int
	Queries []Query
}

// TokensPerFrame returns the per-frame token count.
func (s *Session) TokensPerFrame() int {
	if len(s.FrameEmbeds) == 0 {
		return 0
	}
	return s.FrameEmbeds[0].Rows
}

// FrameOfToken maps a global token index (during the frame phase) to its
// frame index.
func (s *Session) FrameOfToken(tok int) int { return tok / s.TokensPerFrame() }

// Generator builds sessions for a model embedding width.
type Generator struct {
	cfg  Config
	dim  int
	enc  *vision.Encoder
	proj *vision.Projector
}

// NewGenerator creates a generator that emits sessions with model-input
// embeddings of width dim (the LLM's Dim), using the vision encoder +
// projector pipeline of Fig. 3.
func NewGenerator(cfg Config, dim int) *Generator {
	if cfg.Frames <= 0 || cfg.QueryTokens <= 0 {
		panic("workload: non-positive session shape")
	}
	embedDim := 2 * cfg.Stream.PixelDim
	return &Generator{
		cfg:  cfg,
		dim:  dim,
		enc:  vision.NewEncoder(cfg.Stream.TokensPerFrame, cfg.Stream.PixelDim, embedDim, cfg.Seed^0xabc),
		proj: vision.NewProjector(embedDim, 2*dim, dim, cfg.Seed^0xdef),
	}
}

// Session materialises one scenario for the given task family. Each session
// uses an independent sub-seed so sessions are i.i.d. but reproducible.
func (g *Generator) Session(task Task, sessionIdx int) *Session {
	streamCfg := g.cfg.Stream
	streamCfg.Seed = g.cfg.Stream.Seed + uint64(sessionIdx)*1000003
	stream := vision.NewStream(streamCfg)
	rng := mathx.NewRNG(g.cfg.Seed ^ (uint64(sessionIdx+1) * 0x9e37))

	s := &Session{}
	for f := 0; f < g.cfg.Frames; f++ {
		frame := stream.Next()
		emb := g.proj.Project(g.enc.Encode(frame))
		s.FrameEmbeds = append(s.FrameEmbeds, emb)
		s.SceneOf = append(s.SceneOf, frame.SceneID)
	}
	for q := 0; q < g.cfg.Queries; q++ {
		s.Queries = append(s.Queries, g.buildQuery(s, task, rng))
	}
	return s
}

// buildQuery plants evidence: the query embedding mixes the target scene's
// content with task-dependent noise, so a model attending to the right
// tokens can answer and one that dropped them cannot.
func (g *Generator) buildQuery(s *Session, task Task, rng *mathx.RNG) Query {
	nScenes := s.SceneOf[len(s.SceneOf)-1] + 1
	var target int
	switch task {
	case TaskNext:
		target = nScenes - 1
	case TaskProc:
		target = nScenes / 2
	case TaskProcPlus:
		target = nScenes / 4
	default: // TaskStep, TaskTask: any scene
		target = rng.Intn(nScenes)
	}
	// Evidence content: a specific spatial token of the target scene's
	// middle frame (the "salient object" the question is about). Using one
	// concrete token keeps the planted signal sharp — its key, and the
	// AR-correlated keys of the same spatial slot in adjacent frames of the
	// scene, are what a correct answer must attend to.
	var sceneFrames []int
	for f, sc := range s.SceneOf {
		if sc == target {
			sceneFrames = append(sceneFrames, f)
		}
	}
	mid := sceneFrames[len(sceneFrames)/2]
	slot := rng.Intn(s.FrameEmbeds[mid].Rows)
	evidence := s.FrameEmbeds[mid].Row(slot)

	// Normalise to the typical embedding norm so the task noise levels are
	// calibrated SNRs regardless of projector scaling.
	typ := typicalNorm(s.FrameEmbeds)
	en := norm(evidence)
	gain := float32(0)
	if en > 0 {
		gain = 1.5 * typ / en
	}
	// Per-dim sigma = level*typ/sqrt(dim) makes the noise vector's expected
	// norm equal to level*typ, i.e. SNR = 1.5/level.
	sigma := float32(task.queryNoise()) * typ / sqrt32(float32(g.dim))
	q := tensor.NewMatrix(g.cfg.QueryTokens, g.dim)
	for i := 0; i < q.Rows; i++ {
		row := q.Row(i)
		for d := range row {
			row[d] = gain*evidence[d] + sigma*rng.Norm32()
		}
	}
	return Query{Embeddings: q, TargetScene: target, Task: task}
}

// typicalNorm returns the mean row norm across the session's embeddings.
func typicalNorm(frames []*tensor.Matrix) float32 {
	var sum float64
	n := 0
	for _, fm := range frames {
		for r := 0; r < fm.Rows; r++ {
			sum += float64(norm(fm.Row(r)))
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return float32(sum / float64(n))
}

func norm(v []float32) float32 {
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	return sqrt32(float32(ss))
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 16; i++ {
		x = (x + v/x) / 2
	}
	return x
}
