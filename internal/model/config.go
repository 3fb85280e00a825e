// Package model implements the functional streaming-video-LLM backbone of
// Fig. 3: a decoder-only transformer with RMSNorm, rotary attention, SwiGLU
// FFN and a per-layer KV cache, executed in the iterative-prefill +
// generation regime streaming video LLMs use. Retrieval policies (ReSV and
// the baselines) plug in through the Retriever interface, which observes
// newly appended KV entries and selects which past tokens attention may use.
//
// The functional plane runs at small dimensions with deterministic random
// weights; the key projection is tied to the query projection (a token's key
// is the leading KVDim columns of its rotated query) so attention scores
// track content similarity (the stand-in for trained attention), and rotary
// embedding is applied to half the head dimensions (partial rotary) so
// semantic matching survives long distances.
package model

import "fmt"

// Stage distinguishes the two inference regimes of a streaming video LLM;
// retrieval policies behave differently in each (e.g. InfiniGen retrieves
// only during text generation).
type Stage int

const (
	// StageFrame is the iterative prefill of arriving video frames.
	StageFrame Stage = iota
	// StageText is question prefill + answer generation.
	StageText
)

func (s Stage) String() string {
	if s == StageFrame {
		return "frame"
	}
	return "text"
}

// Config shapes the functional transformer.
type Config struct {
	Layers  int
	Heads   int
	KVHeads int // grouped-query attention; must divide Heads
	Dim     int // model width; Dim % Heads == 0
	FFNDim  int
	// RoPETheta is the rotary base (Llama uses 10000 / 500000).
	RoPETheta float64
	// RotaryFraction is the fraction of each head's dims that are rotated
	// (partial rotary); 0.5 keeps long-range semantic matching intact.
	RotaryFraction float64
	// Sharpness scales attention logits. Trained models exhibit highly
	// peaked attention (a few tokens carry most of the mass — the property
	// both the WTU's early exit and ReSV's thresholding rely on); random
	// weights alone give near-uniform attention, so the substitution
	// sharpens logits to restore realistic concentration.
	Sharpness float64
	// Seed drives weight initialisation.
	Seed uint64
}

// DefaultConfig returns a small functional configuration used by tests and
// the accuracy experiments.
func DefaultConfig() Config {
	return Config{
		Layers:         4,
		Heads:          4,
		KVHeads:        4,
		Dim:            64,
		FFNDim:         128,
		RoPETheta:      10000,
		RotaryFraction: 0.5,
		Sharpness:      3,
		Seed:           1,
	}
}

// Validate checks structural invariants.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model: Layers = %d, must be positive", c.Layers)
	case c.Heads <= 0 || c.Dim <= 0 || c.FFNDim <= 0:
		return fmt.Errorf("model: non-positive dimensions")
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("model: Dim %d not divisible by Heads %d", c.Dim, c.Heads)
	case c.KVHeads <= 0 || c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model: Heads %d not divisible by KVHeads %d", c.Heads, c.KVHeads)
	case c.RotaryFraction < 0 || c.RotaryFraction > 1:
		return fmt.Errorf("model: RotaryFraction %v out of [0,1]", c.RotaryFraction)
	case c.Sharpness < 0:
		return fmt.Errorf("model: Sharpness must be non-negative")
	}
	headDim := c.Dim / c.Heads
	if headDim%2 != 0 {
		return fmt.Errorf("model: head dim %d must be even for RoPE", headDim)
	}
	return nil
}

// HeadDim returns Dim/Heads.
func (c Config) HeadDim() int { return c.Dim / c.Heads }

// KVDim returns the width of cached K/V rows (KVHeads x HeadDim).
func (c Config) KVDim() int { return c.KVHeads * c.HeadDim() }
