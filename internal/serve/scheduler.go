package serve

import (
	"strings"

	"vrex/internal/hwsim"
	"vrex/internal/named"
	"vrex/internal/policyspec"
)

// DefaultBatchMax is the frames-per-step cap when SchedulerConfig leaves
// BatchMax unset: deep enough that the per-step weight read amortises well,
// shallow enough that a batch never stalls a deadline by more than a few
// frame times.
const DefaultBatchMax = 8

// SchedulerConfig configures each device's continuous-batching scheduler.
// Frame and query arrivals queue per device and the device forms one
// hardware step whenever it is free: ready frames coalesce (up to BatchMax)
// into a single batched step priced by hwsim.Step — one weight read and one
// fixed host overhead for the whole batch — while queries (prefill + full
// answer) always execute as solo steps. Work joins the device timeline when
// its step forms, so admission paging can land ahead of queued frames and a
// session's resident KV grows at service time; a departed session's pages
// stay held until its queued work drains. The policy orders the ready
// queue; per-class deadlines (StreamClass.SLO) drive the edf policy and the
// SLO/goodput metrics.
//
// The zero value (nil Policy) is fifo with BatchMax 1: one item per step,
// in arrival order.
type SchedulerConfig struct {
	// Policy orders ready work at each step-formation point; nil is fifo at
	// batch 1 (BatchMax is then ignored). Build one with ParseScheduler
	// ("fifo", "edf", "priority") or implement Scheduler directly.
	Policy Scheduler
	// BatchMax caps the frames coalesced into one hardware step under a
	// non-nil Policy (DefaultBatchMax when 0, 1 restores one-item steps).
	BatchMax int
	// SLO is the default frame deadline in seconds for classes that leave
	// StreamClass.SLO unset; 0 falls back to one frame interval (1/FPS).
	SLO float64
}

// Effective returns the policy and frames-per-step cap a run uses: fifo at
// batch 1 for a nil Policy, otherwise Policy with BatchMax (DefaultBatchMax
// when 0).
func (c SchedulerConfig) Effective() (Scheduler, int) {
	if c.Policy == nil {
		return fifoSched{}, 1
	}
	if c.BatchMax <= 0 {
		return c.Policy, DefaultBatchMax
	}
	return c.Policy, c.BatchMax
}

// WorkItem is the scheduling policy's view of one queued frame or query.
type WorkItem struct {
	Session int
	// Class indexes the run's stream mix; Priority is that class's
	// StreamClass.Priority.
	Class    int
	Priority int
	// Query marks a query (prefill + answer) item; false for a video frame.
	Query bool
	// Arrival is the item's arrival time; Deadline is Arrival plus the
	// class's resolved SLO.
	Arrival  float64
	Deadline float64
}

// Scheduler orders a device's ready queue: items with lower keys serve
// first, ties break by global arrival order. Keys are computed once at
// enqueue, so they must be a pure function of the item. The queue keeps one
// lane per stream class: a key that does not decrease with arrival within a
// class — as fifo's, edf's and priority's do — keeps push and pop O(1); any
// other key is ordered exactly, at the cost of shifting the item past its
// lane's later items.
type Scheduler interface {
	Name() string
	Key(WorkItem) float64
}

// fifoSched serves in arrival order (every key equal; the arrival-sequence
// tie-break does the ordering).
type fifoSched struct{}

func (fifoSched) Name() string         { return "fifo" }
func (fifoSched) Key(WorkItem) float64 { return 0 }

// edfSched is earliest-deadline-first: tighter-SLO classes overtake.
type edfSched struct{}

func (edfSched) Name() string            { return "edf" }
func (edfSched) Key(it WorkItem) float64 { return it.Deadline }

// prioritySched serves by stream-class priority (lower StreamClass.Priority
// first), arrival order within a class.
type prioritySched struct{}

func (prioritySched) Name() string            { return "priority" }
func (prioritySched) Key(it WorkItem) float64 { return float64(it.Priority) }

// schedulers is the scheduling-policy registry: CLIs resolve -scheduler
// specs here through the shared policyspec grammar.
var schedulers = named.New[func(*policyspec.Spec) (Scheduler, error)]("serve", "scheduler")

func init() {
	RegisterScheduler("fifo", func(sp *policyspec.Spec) (Scheduler, error) {
		return fifoSched{}, sp.CheckConsumed()
	})
	RegisterScheduler("edf", func(sp *policyspec.Spec) (Scheduler, error) {
		return edfSched{}, sp.CheckConsumed()
	})
	RegisterScheduler("priority", func(sp *policyspec.Spec) (Scheduler, error) {
		return prioritySched{}, sp.CheckConsumed()
	})
}

// RegisterScheduler adds a scheduling-policy factory under name
// (lower-cased); duplicates panic — registry names are part of the CLI
// surface.
func RegisterScheduler(name string, f func(*policyspec.Spec) (Scheduler, error)) {
	schedulers.Register(name, f)
}

// SchedulerNames returns the registered scheduling policy names, sorted.
func SchedulerNames() []string { return schedulers.Names() }

// ParseScheduler builds a scheduling policy from a policyspec string
// ("fifo", "edf", "priority"); "" and "none" return nil (batch-1 fifo).
func ParseScheduler(spec string) (Scheduler, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || strings.EqualFold(spec, "none") {
		return nil, nil
	}
	sp, err := policyspec.Parse(spec)
	if err != nil {
		return nil, err
	}
	f, ok := schedulers.Lookup(sp.Name)
	if !ok {
		return nil, schedulers.Unknown(sp.Name)
	}
	return f(sp)
}

// readyItem is one queued frame or query on a device's ready queue.
type readyItem struct {
	at      float64
	key     float64
	seq     int
	session int
	query   bool
}

// before orders a ready queue by (policy key, arrival time, seq): policy
// first, arrival order within a key — seq alone is not arrival order (it is
// the arrival's arrivalSeq, session then kind) and only breaks exact-time
// ties, exactly as the event heap does.
func (a readyItem) before(b readyItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// enqueue puts a frame or query arrival on its device's ready queue and
// wakes the device. Work whose session sits on a down device (it could not
// be moved off, or every device is down) or holds no pages (queued or
// rejected on the memory-pressure plane) drops on arrival.
func (e *engine) enqueue(ev event) {
	s, query := ev.session, ev.kind == evQuery
	sess := &e.sessions[s]
	d := sess.device
	if !query {
		e.metrics[s].FramesArrived++
	}
	if e.devs[d].Down || e.plane != nil && e.plane.state[s] != sessAdmitted {
		e.drop(s, ev.at, query)
		return
	}
	it := readyItem{at: ev.at, seq: ev.seq, session: s, query: query}
	it.key = e.sched.Key(WorkItem{
		Session: s, Class: sess.class,
		Priority: e.classes[sess.class].Priority, Query: query,
		Arrival: ev.at, Deadline: ev.at + e.slo[sess.class],
	})
	e.ready[d].push(it, sess.class)
	e.pending[s]++
	e.wake(d, ev.at)
}

// wake schedules device d's next step at the later of `at` and the time it
// frees up, unless a wake-up is already pending.
func (e *engine) wake(d int, at float64) {
	if !e.stepScheduled[d] {
		e.scheduleStep(d, max(at, e.devs[d].Free))
	}
}

// scheduleStep pushes device d's next wake-up at time t; the caller
// guarantees no wake-up is pending.
func (e *engine) scheduleStep(d int, t float64) {
	e.events.push(event{at: t, session: d, kind: evStep, seq: e.stepSeq})
	e.stepSeq++
	e.stepScheduled[d] = true
}

// resolve retires one pending item (served or dropped) for session s,
// releasing the session's KV once it has departed and drained.
func (e *engine) resolve(s int, at float64) {
	e.pending[s]--
	if e.ended[s] && e.pending[s] == 0 {
		e.releaseSession(s, at)
	}
}

// formBatch runs one scheduling point on device d at time at: pick ready
// items in policy order, dropping stale or unallocatable frames, until one
// hardware step forms — a frame batch up to batchMax, or a solo query — then
// charge it and schedule the next wake-up at the step's completion.
func (e *engine) formBatch(d int, at float64) {
	q := &e.ready[d]
	if q.n == 0 {
		return
	}
	if e.devs[d].Down {
		// The device died with work queued (it could not be moved): drop it.
		e.dropReady(d, at)
		return
	}
	if e.devs[d].Free > at {
		// The device picked up work (admission paging) after this wake-up
		// was scheduled; form the step when it actually frees up.
		e.scheduleStep(d, e.devs[d].Free)
		return
	}
	for q.n > 0 {
		head := q.pop()
		if head.query {
			if e.serveQuery(d, head, at) {
				break
			}
			continue // dropped without occupying the device; keep picking
		}
		paging, ok := e.admitFrame(d, head, at)
		if !ok {
			continue
		}
		members := append(e.members[:0], head)
		// Extend the step with ready frames in strict policy order: a query
		// at the front ends the batch rather than being overtaken.
		for len(members) < e.batchMax && q.n > 0 && !q.peek().query {
			it := q.pop()
			if p, ok := e.admitFrame(d, it, at); ok {
				members = append(members, it)
				paging += p
			}
		}
		e.serveFrames(d, members, paging, at)
		e.members = members[:0]
		break
	}
	if q.n > 0 {
		e.scheduleStep(d, e.devs[d].Free)
	}
}

// admitFrame applies per-frame admission to a step candidate as the step
// forms at `at`, the member's service start: the drop threshold (measured
// from arrival to `at`), the device-memory check, and — with the
// memory-pressure plane — reserving pages for the frame's new tokens and
// making the session fully resident. The returned page-movement time lands
// on the device timeline before the step. A failed frame drops and its
// pending slot resolves.
func (e *engine) admitFrame(d int, it readyItem, at float64) (paging float64, ok bool) {
	s := it.session
	e.degradeDecide(s, d, it.at)
	sc := e.classes[e.sessions[s].class].Stream
	stale := e.cfg.DropThreshold > 0 && at-it.at > e.cfg.DropThreshold*(1/sc.FPS)
	ok = !stale && !e.sims[d].OOM(e.frameReq(s))
	if ok && e.plane != nil {
		pool := e.plane.pools[d]
		var growSpill float64
		if growSpill, ok = pool.Grow(s, sc.TokensPerFrame, it.at); ok {
			pageIn, pageOut := pool.Touch(s, it.at)
			paging = growSpill + pageIn + pageOut
			e.pagingStalls(d, at, growSpill+pageOut, pageIn)
		}
	}
	if !ok {
		e.drop(s, it.at, false)
		e.resolve(s, at)
	}
	return paging, ok
}

// serveFrames charges one coalesced frame step: the batch's page movement
// (paging, summed over the members' admissions) lands on the device
// timeline once, before the step, and every member completes at the step's
// end. Each member's latency is measured against the captured completion
// time, so a member's session teardown (resolve can charge drain paging
// onto the device) never bleeds into a batchmate's sample. The batch-formed
// event follows the members' served events and carries the head session's
// post-step KV, matching the query step's convention.
func (e *engine) serveFrames(d int, members []readyItem, paging, at float64) {
	dev := &e.devs[d]
	start := max(at, dev.Free)
	reqs := e.reqs[:0]
	for _, it := range members {
		reqs = append(reqs, e.frameReq(it.session))
	}
	b := e.sims[d].Step(reqs)
	total := b.Total
	if b.OOM {
		// The members fit individually (admitFrame checked) but not
		// co-resident: price the step as serial sub-steps instead of
		// dropping work the pool already allocated.
		total = 0
		for i := range reqs {
			total += e.sims[d].Step(reqs[i : i+1]).Total
		}
	}
	dev.Free = start + paging + total
	dev.Busy += paging + total
	e.profCharge(paging + total)
	done := dev.Free
	e.devMetrics[d].Batches++
	for _, it := range members {
		s := it.session
		sc := e.classes[e.sessions[s].class].Stream
		e.kv[s] += sc.TokensPerFrame
		dev.ResidentKV += sc.TokensPerFrame
		e.trackPeak(d)
		e.metrics[s].FramesServed++
		e.devMetrics[d].FramesServed++
		lat := done - it.at
		e.latLog = append(e.latLog, sample{s, lat})
		e.observe(EventFrameServed, it.at, s, lat)
		e.served(s, d, it.at, start-it.at, lat, true)
		e.resolve(s, at)
	}
	e.observeBatch(at, d, members[0].session, len(members), total)
	e.reqs = reqs[:0]
}

// frameReq is session s's next frame as a hardware step request, at the
// session's current retrieval budget.
func (e *engine) frameReq(s int) hwsim.StepReq {
	return hwsim.StepReq{
		NewTokens: e.classes[e.sessions[s].class].Stream.TokensPerFrame,
		KVLen:     e.kv[s], Stage: hwsim.StageFramePhase, RatioScale: e.budgetOf(s),
	}
}

// serveQuery charges one solo query step formed at `at` — prefill plus the
// full answer, KV growing token by token, priced by one hwsim Query. It
// reports whether the device was occupied: the query drops instead when the
// session's KV would outgrow device memory during the answer, or when the
// memory-pressure plane cannot allocate the KV growth. The batch-formed
// event follows the query's served event, since the step's service time is
// only known after pricing.
func (e *engine) serveQuery(d int, it readyItem, at float64) bool {
	s := it.session
	e.degradeDecide(s, d, it.at)
	sc := e.classes[e.sessions[s].class].Stream
	sim := e.sims[d]
	req := hwsim.StepReq{
		NewTokens: sc.QueryTokens, KVLen: e.kv[s],
		Stage: hwsim.StageTextPhase, RatioScale: e.budgetOf(s),
	}
	// The largest KV any of the query's steps prices at is the last decode
	// token's (the prefill's without an answer); the footprint only grows
	// with KV, so if that fits, every step does.
	peak := req
	if sc.AnswerTokens > 0 {
		peak.KVLen += sc.QueryTokens + sc.AnswerTokens - 1
	}
	dev := &e.devs[d]
	start := max(at, dev.Free)
	paging := 0.0
	ok := !sim.OOM(peak)
	if ok && e.plane != nil {
		pool := e.plane.pools[d]
		var growSpill float64
		if growSpill, ok = pool.Grow(s, sc.QueryTokens+sc.AnswerTokens, it.at); ok {
			pageIn, pageOut := pool.Touch(s, it.at)
			paging = growSpill + pageIn + pageOut
			e.pagingStalls(d, start, growSpill+pageOut, pageIn)
		}
	}
	if !ok {
		e.drop(s, it.at, true)
		e.resolve(s, at)
		return false
	}
	total := sim.Query(req, sc.AnswerTokens)
	e.kv[s] += sc.QueryTokens + max(sc.AnswerTokens, 0)
	dev.Free = start + paging + total
	dev.Busy += paging + total
	e.profCharge(paging + total)
	dev.ResidentKV += sc.QueryTokens + sc.AnswerTokens
	e.trackPeak(d)
	e.metrics[s].QueriesServed++
	e.devMetrics[d].QueriesServed++
	e.devMetrics[d].Batches++
	e.observe(EventQueryServed, it.at, s, dev.Free-it.at)
	e.served(s, d, it.at, start-it.at, dev.Free-it.at, false)
	e.observeBatch(at, d, s, 1, total)
	e.resolve(s, at)
	return true
}

// moveReady re-homes session s's queued ready items from device src to dst,
// keeping their policy keys and arrival order, and wakes dst up.
func (e *engine) moveReady(s, src, dst int, at float64) {
	if e.ready[src].move(s, e.sessions[s].class, &e.ready[dst]) > 0 {
		e.wake(dst, at)
	}
}

// dropReady drops every queued item on device d (device failure): frames
// and queries account as dropped and their pending slots resolve.
func (e *engine) dropReady(d int, at float64) {
	// Drain in queue order so the drop events observe deterministically.
	for q := &e.ready[d]; q.n > 0; {
		it := q.pop()
		e.drop(it.session, it.at, it.query)
		e.resolve(it.session, at)
	}
}

// observeBatch emits an EventBatchFormed for a step of `size` items headed
// by session `head`, with the step's service time (excluding queued page
// movement) as Latency.
func (e *engine) observeBatch(at float64, d, head, size int, service float64) {
	if e.cfg.Observer == nil {
		return
	}
	e.cfg.Observer.Observe(Event{
		Kind: EventBatchFormed, Time: at, Session: head,
		Class: e.classes[e.sessions[head].class].Name, Device: d,
		Latency: service, KV: e.kv[head], Batch: size,
	})
}
