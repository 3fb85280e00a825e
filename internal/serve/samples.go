package serve

import "math"

// sample is one served item's frame latency or queue wait, tagged with its
// session. A run logs each quantity's samples in service order; after the
// loop groupSamples lays a log out so that every percentile is selected in
// place on a range of one buffer.
type sample struct {
	session int
	v       float64
}

// span is the half-open range [lo, hi) of a grouped sample buffer.
type span struct{ lo, hi int }

// maxSampleHint caps each log's up-front size (16 MiB of samples): past it
// append grows the log, so a run that drops most of its arrivals, or an
// absurd duration, never reserves memory for samples it does not record.
const maxSampleHint = 1 << 20

// sampleHint bounds the frames, and the frames plus queries, that sessions
// can serve: a session present over [start, end) arrives at most
// ⌊(end−start)/interval⌋+1 frames and, when it has queries,
// ⌊(end−start)/queryEvery⌋+1 queries. The bounds size the latency and
// queue-wait logs; they are only hints, as append grows a log they
// undercount.
func sampleHint(sessions []session) (frames, items int) {
	var f, q float64
	for i := range sessions {
		s := &sessions[i]
		window := s.end - s.start
		f += math.Floor(window/s.interval) + 1
		if s.queryEvery > 0 {
			q += math.Floor(window/s.queryEvery) + 1
		}
	}
	return int(min(f, maxSampleHint)), int(min(f+q, maxSampleHint))
}

// grouped is a sample log laid out by groupSamples: class c's samples are
// vals[byClass[c].lo:byClass[c].hi], and the whole run's are all of vals.
type grouped struct {
	vals    []float64
	byClass []span
}

// class returns class c's samples.
func (g grouped) class(c int) []float64 { return g.vals[g.byClass[c].lo:g.byClass[c].hi] }

// groupSamples writes log's values into one buffer class by class and,
// within a class, session by session in index order, so that each session's
// samples, each class's and the whole log's are one contiguous range. It
// fills bySession (one entry per session) with the sessions' ranges.
func groupSamples(log []sample, sessions []session, nClasses int, bySession []span) grouped {
	g := grouped{vals: make([]float64, len(log)), byClass: make([]span, nClasses)}
	// Count each session's samples into its hi, then each class's into its.
	clear(bySession)
	for _, x := range log {
		bySession[x.session].hi++
	}
	for s := range sessions {
		g.byClass[sessions[s].class].hi += bySession[s].hi
	}
	// Place the classes in order, then each class's sessions in index order.
	// Every hi becomes a fill cursor that ends at its range's end.
	at := 0
	for c := range g.byClass {
		n := g.byClass[c].hi
		g.byClass[c] = span{at, at}
		at += n
	}
	for s := range sessions {
		c := &g.byClass[sessions[s].class]
		n := bySession[s].hi
		bySession[s] = span{c.hi, c.hi}
		c.hi += n
	}
	for _, x := range log {
		r := &bySession[x.session]
		g.vals[r.hi] = x.v
		r.hi++
	}
	return g
}
