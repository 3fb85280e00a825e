package core

import (
	"math"
	"slices"
	"testing"

	"vrex/internal/mathx"
	"vrex/internal/model"
	"vrex/internal/wicsum"
)

// exactRow is the exact path on a copy of one score row: the whole row
// exp-normalised, then Select, with its selection copied out.
func exactRow(scores []float32, w []float64, maxv float32, ratio float64) (wicsum.RowSelection, float64) {
	mass := slices.Clone(scores)
	total, minv, maxm := mathx.ExpNormalizeWeighted(mass, mass, maxv, w)
	var ws wicsum.Scratch
	sel := ws.Select(mass, w, ratio, total, minv, maxm)
	sel.Selected = slices.Clone(sel.Selected)
	return sel, total
}

// boundedChecker runs rows through ReSV's bounded path and the exact path
// and requires every row the bounded path decides to select what the exact
// path selects, in the same order, with the same Examined and MassCovered
// bits, and the bounded path to leave the scores as they were.
type boundedChecker struct {
	t               *testing.T
	r               *ReSV
	rw              rowWorker
	rows, undecided int
	straddled       int
}

func (c *boundedChecker) check(scores []float32, w []float64, ratio float64) bool {
	c.t.Helper()
	maxv := float32(math.Inf(-1))
	for _, v := range scores {
		maxv = max(maxv, v)
	}
	want, _ := exactRow(scores, w, maxv, ratio)
	before := slices.Clone(scores)
	c.r.cfg.ThWics = ratio
	c.rw.ws.Reset()
	got, ok := c.r.selectBounded(&c.rw, scores, w, maxv)
	if !slices.Equal(scores, before) {
		c.t.Fatal("the bounded path wrote to the score row")
	}
	c.rows++
	if !ok {
		c.undecided++
		return false
	}
	if !slices.Equal(got.Selected, want.Selected) || got.Examined != want.Examined || math.Float64bits(got.MassCovered) != math.Float64bits(want.MassCovered) {
		c.t.Fatalf("row of %d at ratio %v: bounded path selected %v (examined %d, covered %v), exact path %v (examined %d, covered %v)",
			len(scores), ratio, got.Selected, got.Examined, got.MassCovered, want.Selected, want.Examined, want.MassCovered)
	}
	return true
}

// walkSums returns the exact path's walk over a row: the entries in the
// order the early exit visits them and the covered mass after each, from a
// selection at ratio 1, which walks every entry.
func walkSums(scores []float32, w []float64, maxv float32) (order []int, covered []float64, total float64) {
	mass := slices.Clone(scores)
	mathx.ExpNormalizeWeighted(mass, mass, maxv, w)
	all, total := exactRow(scores, w, maxv, 1)
	var c float64
	for _, j := range all.Selected {
		c += float64(float64(mass[j]) * w[j])
		covered = append(covered, c)
	}
	return all.Selected, covered, total
}

// TestBoundedMatchesExact is the bounded path's differential test against
// the exact path (ScoreKeys' rows thresholded through ExpNormalizeWeighted
// and Select), which it must match wherever it decides:
//
//   - random rows of 1 to 300 candidates at several score scales and
//     ratios, with past-token counts as weights, of which 90% must decide
//     at ratios up to 0.3 (the default is 0.3);
//   - crafted rows whose candidates crowd x in [-3, -1.5], the buckets
//     just above the lowest, thresholded at ratios that put the threshold
//     next to the covered mass of each step of their walk: exactly at it,
//     a few float64 ulps either side, either side of the interval the
//     bounded path brackets the threshold by, and halfway between the
//     covered mass over the exact total and over the bounded pass's
//     approximate one, where a zero-width interval around the approximate
//     threshold would trip at another step than the exact walk.
//
// Some crafted steps must straddle the approximate and the exact
// threshold, and some must fall inside the interval and give up.
func TestBoundedMatchesExact(t *testing.T) {
	c := &boundedChecker{t: t, r: New(model.DefaultConfig(), DefaultConfig())}
	rng := mathx.NewRNG(61)
	weightsFor := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + rng.Intn(32))
		}
		return w
	}
	low, lowDecided := 0, 0
	for rep := 0; rep < 400; rep++ {
		n := 1 + rng.Intn(300)
		scale := []float32{1, 2, 3, 5}[rep%4]
		scores := make([]float32, n)
		for i := range scores {
			scores[i] = rng.Norm32() * scale
		}
		for _, ratio := range []float64{0.1, 0.3, 0.6, 0.9} {
			ok := c.check(scores, weightsFor(n), ratio)
			if ratio <= 0.3 {
				low++
				if ok {
					lowDecided++
				}
			}
		}
	}
	if lowDecided*10 < low*9 {
		t.Fatalf("the bounded path decided %d of %d random rows at ratios up to 0.3, want at least 90%%", lowDecided, low)
	}
	t.Logf("random rows: %d of %d decided, %d of %d at ratios up to 0.3", c.rows-c.undecided, c.rows, lowDecided, low)

	c.rows, c.undecided = 0, 0
	for rep := 0; rep < 60; rep++ {
		n := 40 + rng.Intn(200)
		scores := make([]float32, n)
		for i := range scores {
			switch {
			case i == n/2:
				scores[i] = 0
			case rng.Intn(4) == 0:
				scores[i] = -3 + 1.5*rng.Float32()
			default:
				scores[i] = -4 - 8*rng.Float32()
			}
		}
		w := weightsFor(n)
		order, covered, total := walkSums(scores, w, 0)
		lo, hi, _, _, ok := mathx.ExpMassBound(scores, 0, w, nil)
		if !ok {
			t.Fatalf("crafted row out of the bounded pass's range")
		}
		approx := (lo + hi) / 2
		spread := (hi - lo) / (hi + lo)
		mass := slices.Clone(scores)
		_, minv, maxm := mathx.ExpNormalizeWeighted(mass, mass, 0, w)
		width := (maxm - minv) / 20
		for k, ck := range covered {
			if mass[order[k]]-minv < width {
				break // the lowest bucket, which the bounded path never walks
			}
			ulp := math.Nextafter(ck, math.Inf(1)) - ck
			targets := []float64{ck, ck - ulp, ck + ulp, ck - 4*ulp, ck + 4*ulp,
				ck * (1 - 3*spread), ck * (1 + 3*spread), ck * (1 - spread/2), ck * (1 + spread/2)}
			for _, th := range targets {
				c.check(scores, w, th/total)
			}
			// Halfway between ck/total and ck/approx: the exact threshold
			// and the approximate one lie either side of ck.
			ratio := ck / ((total + approx) / 2)
			if exact, near := total*ratio, approx*ratio; (exact < ck) != (near < ck) {
				c.straddled++
			}
			c.check(scores, w, ratio)
		}
	}
	if c.straddled == 0 {
		t.Fatal("no crafted step lay between the exact and the approximate threshold")
	}
	if c.undecided == 0 || c.undecided == c.rows {
		t.Fatalf("crafted rows: %d of %d undecided, want some of each", c.undecided, c.rows)
	}
	t.Logf("crafted rows: %d thresholds, %d undecided, %d straddling the approximate and exact thresholds", c.rows, c.undecided, c.straddled)
}
