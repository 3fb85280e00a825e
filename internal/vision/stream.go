// Package vision provides the vision-side substrate of a streaming video
// LLM (Fig. 3 of the paper): a synthetic video stream whose frame contents
// exhibit the temporal/spatial similarity real video has (the property ReSV
// exploits, Fig. 7), a frame encoder standing in for the SigLIP vision
// tower, an MLP projector into the LLM embedding space, and an analytic cost
// model of the real ViT for the performance simulator.
package vision

import (
	"math"

	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

// StreamConfig shapes a synthetic video stream.
type StreamConfig struct {
	// TokensPerFrame is the number of spatial tokens each frame produces
	// after the vision tower + projector (VideoLLM-Online uses ~10).
	TokensPerFrame int
	// PixelDim is the dimension of the raw per-token patch observation the
	// encoder consumes.
	PixelDim int
	// TemporalRho is the frame-to-frame AR(1) correlation of patch content
	// within a scene; 0.97+ reproduces the near-identical adjacent-frame
	// keys of Fig. 7(a).
	TemporalRho float64
	// SceneLength is the expected number of frames between scene changes
	// (content resets, e.g. a new step in an instructional video). <= 0
	// disables scene changes.
	SceneLength int
	// Seed drives all stream randomness.
	Seed uint64
}

// DefaultStreamConfig mirrors the paper's working scenario: 10 tokens per
// frame, strong temporal correlation, scene changes every ~8 frames.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		TokensPerFrame: 10,
		PixelDim:       64,
		TemporalRho:    0.97,
		SceneLength:    8,
		Seed:           1,
	}
}

// Frame is one sampled video frame: a matrix of per-token raw observations
// (TokensPerFrame x PixelDim) plus provenance metadata.
type Frame struct {
	Index   int
	SceneID int
	Pixels  *tensor.Matrix
}

// Stream generates frames with intra-scene temporal correlation.
type Stream struct {
	cfg     StreamConfig
	rng     *mathx.RNG
	state   *tensor.Matrix // current latent content per token
	frame   int
	sceneID int
}

// NewStream creates a stream from cfg.
func NewStream(cfg StreamConfig) *Stream {
	if cfg.TokensPerFrame <= 0 || cfg.PixelDim <= 0 {
		panic("vision: non-positive stream dimensions")
	}
	s := &Stream{cfg: cfg, rng: mathx.NewRNG(cfg.Seed)}
	s.reset()
	return s
}

func (s *Stream) reset() {
	s.state = tensor.NewMatrix(s.cfg.TokensPerFrame, s.cfg.PixelDim)
	s.state.Randomize(s.rng, 1)
}

// Next returns the next frame. Within a scene, content evolves by an AR(1)
// process with coefficient TemporalRho (variance-preserving); at scene
// boundaries the content is redrawn.
func (s *Stream) Next() Frame {
	if s.frame > 0 && s.cfg.SceneLength > 0 {
		// Geometric scene-change arrivals with mean SceneLength.
		if s.rng.Float64() < 1/float64(s.cfg.SceneLength) {
			s.sceneID++
			s.reset()
		} else {
			rho := float32(s.cfg.TemporalRho)
			nscale := float32(math.Sqrt(1 - s.cfg.TemporalRho*s.cfg.TemporalRho))
			for i := range s.state.Data {
				s.state.Data[i] = rho*s.state.Data[i] + nscale*s.rng.Norm32()
			}
		}
	}
	f := Frame{Index: s.frame, SceneID: s.sceneID, Pixels: s.state.Clone()}
	s.frame++
	return f
}
