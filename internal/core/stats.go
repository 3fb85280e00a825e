package core

import "vrex/internal/model"

// Ratio accumulates a selected/candidate token pair; the retrieval ratio is
// Selected/Candidate.
type Ratio struct {
	Selected  int64
	Candidate int64
}

// Value returns the ratio in [0, 1] (1 when no candidates were seen).
func (r Ratio) Value() float64 {
	if r.Candidate == 0 {
		return 1
	}
	return float64(r.Selected) / float64(r.Candidate)
}

// StageStats aggregates selection behaviour within one inference stage.
type StageStats struct {
	SelectedTokens  int64
	CandidateTokens int64
	// Rows counts thresholded score rows (query x head pairs).
	Rows int64
	// FallbackRows counts the rows the bounded path could not decide and
	// handed to the exact path, which exp-normalises the whole row.
	FallbackRows int64
	// ExaminedFraction sums per-call mean examined fractions; divide by the
	// number of SelectTokens calls for the average (see Stats.Calls).
	ExaminedFraction float64
	// Calls counts SelectTokens invocations in this stage.
	Calls int64
}

// RetrievalRatio returns selected/candidate tokens for the stage.
func (s *StageStats) RetrievalRatio() float64 {
	if s.CandidateTokens == 0 {
		return 1
	}
	return float64(s.SelectedTokens) / float64(s.CandidateTokens)
}

// AvgExaminedFraction returns the mean examined fraction per call (the
// WTU early-exit metric; the paper reports ~16%).
func (s *StageStats) AvgExaminedFraction() float64 {
	if s.Calls == 0 {
		return 0
	}
	return s.ExaminedFraction / float64(s.Calls)
}

// Stats aggregates ReSV's selection behaviour across a session: per stage
// (frame processing vs text generation, Table II), per layer and per head
// (Fig. 20).
type Stats struct {
	Frame    StageStats
	Text     StageStats
	PerLayer []Ratio
	PerHead  []Ratio
}

// NewStats allocates statistics for a model shape.
func NewStats(layers, heads int) Stats {
	return Stats{
		PerLayer: make([]Ratio, layers),
		PerHead:  make([]Ratio, heads),
	}
}

func (s *Stats) stage(st model.Stage) *StageStats {
	if st == model.StageFrame {
		return &s.Frame
	}
	return &s.Text
}
