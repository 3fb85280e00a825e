package serve

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vrex/internal/mathx"
)

// percentilesBySort is the sort-based definition of a (P50, P99) pair: sort
// a copy and interpolate linearly between the closest ranks, each product
// rounded on its own; no samples give zeros.
func percentilesBySort(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	c := slices.Sorted(slices.Values(xs))
	at := func(p float64) float64 {
		rank := float64(p / 100 * float64(len(c)-1))
		lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
		if lo == hi {
			return c[lo]
		}
		frac := rank - float64(lo)
		return float64(c[lo]*(1-frac)) + float64(c[hi]*frac)
	}
	return at(50), at(99)
}

// TestReduceStreamsMatchesSortReference: over random sample logs (sessions
// in random class order, samples interleaved across sessions, many duplicate
// values and +0, sessions without samples and classes without sessions),
// every session's latency pair and every class's and the run's latency and
// queue-wait pairs equal the sort-based definition on that subset, bit for
// bit, at one worker and at four.
func TestReduceStreamsMatchesSortReference(t *testing.T) {
	rng := mathx.NewRNG(24)
	for trial := 0; trial < 400; trial++ {
		classes := make([]StreamClass, 1+rng.Intn(4))
		for c := range classes {
			classes[c].Name = fmt.Sprint("c", c)
		}
		sessions := make([]session, rng.Intn(12))
		silent := make([]bool, len(sessions))
		for s := range sessions {
			sessions[s] = session{class: rng.Intn(len(classes)), end: 1}
			silent[s] = rng.Intn(4) == 0
		}
		distinct := 1 + rng.Intn(6)
		draw := func() float64 {
			if rng.Intn(3) == 0 {
				return rng.Float64()
			}
			return float64(rng.Intn(distinct)) / 8
		}
		var latLog, waitLog []sample
		lat, wait := make([][]float64, len(sessions)), make([][]float64, len(sessions))
		latClass, waitClass := make([][]float64, len(classes)), make([][]float64, len(classes))
		var latAll, waitAll []float64
		for i, n := 0, rng.Intn(300); i < n && len(sessions) > 0; i++ {
			s := rng.Intn(len(sessions))
			if silent[s] {
				continue
			}
			c := sessions[s].class
			if rng.Intn(3) > 0 {
				v := draw()
				latLog = append(latLog, sample{s, v})
				lat[s] = append(lat[s], v)
				latClass[c] = append(latClass[c], v)
				latAll = append(latAll, v)
			}
			v := draw()
			waitLog = append(waitLog, sample{s, v})
			wait[s] = append(wait[s], v)
			waitClass[c] = append(waitClass[c], v)
			waitAll = append(waitAll, v)
		}
		same := func(what string, got50, got99 float64, xs []float64) {
			t.Helper()
			want50, want99 := percentilesBySort(xs)
			if math.Float64bits(got50) != math.Float64bits(want50) || math.Float64bits(got99) != math.Float64bits(want99) {
				t.Fatalf("trial %d, %s: P50, P99 = %v, %v; the sort reference on %v says %v, %v",
					trial, what, got50, got99, xs, want50, want99)
			}
		}
		for _, workers := range []int{1, 4} {
			e := &engine{
				cfg: Config{Duration: 1, Workers: workers}, classes: classes, sessions: sessions,
				kv: make([]int, len(sessions)), metrics: make([]StreamMetrics, len(sessions)),
				latLog: latLog, waitLog: waitLog,
			}
			perClass, agg, _ := e.reduceStreams()
			for s, m := range e.metrics {
				same(fmt.Sprintf("workers %d, session %d latency", workers, s), m.P50, m.P99, lat[s])
			}
			for c, cm := range perClass {
				same(fmt.Sprintf("workers %d, class %d latency", workers, c), cm.P50, cm.P99, latClass[c])
				same(fmt.Sprintf("workers %d, class %d queue wait", workers, c), cm.QueueP50, cm.QueueP99, waitClass[c])
			}
			same(fmt.Sprintf("workers %d, run latency", workers), agg.P50, agg.P99, latAll)
			same(fmt.Sprintf("workers %d, run queue wait", workers), agg.QueueP50, agg.QueueP99, waitAll)
		}
	}
}
