// Package serve simulates multi-stream streaming-video-LLM serving under the
// Scenario API: a fleet of devices serves concurrent video sessions drawn
// from a weighted mix of stream classes, frames arrive in real time, queries
// interleave, whole sessions arrive and depart (open-loop churn), and a
// pluggable balancer places each session on a device. Each device queues its
// sessions' frames and queries and, whenever it is free, forms its next
// hardware step from them in scheduler-policy order (batch-1 fifo unless a
// Config.Scheduler says otherwise), with optional frame dropping under
// backlog. It quantifies the paper's closing claim — "clear potential for
// scalable deployment in large-scale server environments" — by measuring how
// many concurrent real-time streams each system sustains (the `scale` and
// `fleet` experiments).
//
// A Config with no Classes, no Churn and at most one device reduces exactly
// to the original single-device, homogeneous-stream simulation: the golden
// tests in internal/experiments pin that path byte-for-byte.
package serve

import (
	"fmt"
	"math"
	"sort"

	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
	"vrex/internal/mathx"
	"vrex/internal/parallel"
)

// StreamConfig describes one video session's arrival process.
type StreamConfig struct {
	// FPS is the incoming frame rate.
	FPS float64
	// TokensPerFrame is the LLM tokens per frame.
	TokensPerFrame int
	// QueryEvery is the mean seconds between user queries (0 disables).
	QueryEvery float64
	// QueryTokens / AnswerTokens shape each interaction.
	QueryTokens  int
	AnswerTokens int
	// StartKV is the session's pre-existing KV length (e.g. mid-session).
	StartKV int
}

// DefaultStreamConfig matches the paper's working scenario at 2 FPS
// streaming (VideoLLM-Online's operating point).
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		FPS:            2,
		TokensPerFrame: 10,
		QueryEvery:     15,
		QueryTokens:    25,
		AnswerTokens:   39,
		StartKV:        1000,
	}
}

// StreamClass is one component of a heterogeneous stream mix: a named
// session shape with a selection weight. Sessions draw their class with
// probability Weight / sum(Weights).
type StreamClass struct {
	Name   string
	Weight float64
	Stream StreamConfig
	// SLO is the class's frame deadline in seconds: a frame completing more
	// than SLO after arrival is a deadline miss (it is still served — only
	// DropThreshold discards work). 0 falls back to SchedulerConfig.SLO,
	// then to one frame interval (1/FPS). The edf scheduler orders ready
	// work by arrival + SLO.
	SLO float64
	// Priority orders classes under the priority scheduler: lower values
	// serve first. Classes sharing a priority fall back to arrival order.
	Priority int
}

// ChurnConfig describes open-loop session churn: whole sessions arriving as
// a Poisson process and departing after exponentially distributed lifetimes.
// The zero value disables churn (the closed population of Config.Streams
// sessions runs for the whole duration).
//
// The three hooks generalise the churn plane to arbitrary load shapes
// (internal/scenario compiles .vrex scenario files into them): each replaces
// one draw while keeping the derived-seed discipline — the hook receives a
// private RNG seeded exactly like the draw it replaces, so enabling one hook
// never perturbs the randomness the others consume. All hooks nil reduces
// byte-identically to the Poisson/exponential process above.
type ChurnConfig struct {
	// ArrivalRate is the mean session arrivals per second (0 disables).
	ArrivalRate float64
	// MeanLifetime is the mean session lifetime in seconds; 0 means sessions
	// stay for the rest of the run.
	MeanLifetime float64
	// Arrivals, when non-nil, replaces the Poisson arrival process: it
	// returns churned-session arrival times (seconds; values outside
	// [0, Duration) are skipped without disturbing later ordinals). rng is
	// the churn-domain generator the Poisson process would have used, so a
	// hook drawing the same exponential gaps reproduces it exactly.
	// ArrivalRate is ignored when set.
	Arrivals func(rng *mathx.RNG, duration float64) []float64
	// Lifetime, when non-nil, replaces the exponential lifetime draw for
	// every session (initial and churned): rng is the session's private
	// lifetime generator, ordinal its index within its seed domain, start its
	// arrival time. A non-positive (or NaN) return means the session stays
	// for the rest of the run. MeanLifetime is ignored when set.
	Lifetime func(rng *mathx.RNG, ordinal int, start float64) float64
	// Class, when non-nil, replaces the weighted class draw: it returns an
	// index into the effective class mix (out-of-range panics). rng is the
	// session's private class generator, ordinal and start as for Lifetime —
	// time-varying mixes (correlated per-class bursts) key off start,
	// trace replays key off ordinal.
	Class func(rng *mathx.RNG, ordinal int, start float64) int
}

// hasArrivals reports whether churn can create sessions at all.
func (c ChurnConfig) hasArrivals() bool { return c.ArrivalRate > 0 || c.Arrivals != nil }

// Config describes a serving run.
type Config struct {
	Dev hwsim.DeviceSpec
	Pol hwsim.PolicyModel
	// DevSpecs, when non-empty, gives each fleet member its own hardware
	// spec (len must equal the fleet size): heterogeneous fleets price each
	// device's work and KV pool from its own spec. Empty means every device
	// is Dev — exactly the original homogeneous fleet.
	DevSpecs []hwsim.DeviceSpec
	// Streams is the number of sessions active at t=0.
	Streams int
	// Duration is the simulated wall-clock seconds.
	Duration float64
	// Stream shapes every session when Classes is empty (the original
	// homogeneous API, kept for back-compat).
	Stream StreamConfig
	// Classes, when non-empty, is the weighted mix sessions draw their shape
	// from; it takes precedence over Stream.
	Classes []StreamClass
	// Churn adds open-loop session arrivals/departures.
	Churn ChurnConfig
	// KV enables the device KV memory-pressure plane: paged per-device KV
	// budgets, spill-to-host/NVMe and memory-aware admission (see KVConfig).
	// The zero value disables it and Run reduces exactly to the unpooled
	// simulation.
	KV KVConfig
	// Scheduler picks the policy that orders each device's ready work and how
	// many frames coalesce into one hardware step (see SchedulerConfig). The
	// zero value serves one item per step in arrival order (batch-1 fifo).
	Scheduler SchedulerConfig
	// Degrade enables the accuracy-aware graceful-degradation plane: a
	// controller shrinks KV-pressured or deadline-missing sessions' retrieval
	// budgets in bounded quantized steps and restores them with hysteresis
	// (see DegradeConfig). The zero value disables it and Run reduces exactly
	// to the undegraded engine.
	Degrade DegradeConfig
	// Devices is the fleet size; 0 or 1 simulates a single device.
	Devices int
	// Balancer places each arriving session on a device; nil defaults to
	// round-robin. Run calls Reset before use, so one Balancer value can be
	// reused across runs.
	Balancer Balancer
	// Control attaches a fleet controller (drain/fail/activate devices,
	// migrate sessions) running at deterministic tick events; the zero value
	// disables it (see ControlConfig).
	Control ControlConfig
	// Migration prices live session moves the controller triggers; the zero
	// value makes moves free (see MigrationConfig).
	Migration MigrationConfig
	// Observer, when non-nil, receives every scheduling event in
	// deterministic order (see Event).
	Observer Observer
	// Telemetry attaches the observability plane: an event/stall sink and a
	// phase-attribution profile (see TelemetryConfig). The zero value
	// disables it and Run prices and observes exactly as before.
	Telemetry TelemetryConfig
	// DropThreshold: a frame still queued after this many frame intervals
	// is dropped (<= 0 disables dropping).
	DropThreshold float64
	// Seed jitters arrivals. Each session derives an independent sub-seed
	// from it, so session s's arrival process never depends on how many other
	// sessions exist or on scheduling order.
	Seed uint64
	// Workers advances independent sessions concurrently between the
	// scheduler barriers (schedule construction before the device loop,
	// per-session metric reduction after it): 0 uses GOMAXPROCS, 1 is
	// sequential. The device loop itself is the barrier — devices serve
	// arrivals in global order — and results are identical for any worker
	// count.
	Workers int
}

// classes returns the effective mix: Classes, or the legacy single Stream.
func (cfg *Config) classes() []StreamClass {
	if len(cfg.Classes) > 0 {
		return cfg.Classes
	}
	return []StreamClass{{Name: "default", Weight: 1, Stream: cfg.Stream}}
}

// StreamMetrics summarises one session.
type StreamMetrics struct {
	// Class names the session's stream class; Device is the fleet member the
	// balancer placed it on.
	Class  string
	Device int

	FramesArrived int
	FramesServed  int
	FramesDropped int
	QueriesServed int
	// QueriesDropped counts queries lost to the memory-pressure plane (the
	// session was unadmitted, or its KV growth could not be allocated);
	// always zero with the plane disabled.
	QueriesDropped int
	// DeadlineMisses counts served frames that completed after their class
	// deadline (see StreamClass.SLO); dropped frames are not counted here —
	// they already show in FramesDropped and depress SLOAttained.
	DeadlineMisses int
	// AchievedFPS counts served frames over the session's presence window
	// (the whole run for non-churned sessions).
	AchievedFPS float64
	// P50 / P99 are frame completion latencies (queueing + service).
	P50, P99 float64
	// FinalKV is the session's KV length at the end.
	FinalKV int
	// Degradation-plane accounting, all zero with Config.Degrade disabled:
	// budget steps taken in each direction, the mean retrieval budget scale
	// across served frames and queries, and the mean accuracy-proxy
	// retention at those budgets (1 when never degraded).
	Degradations  int
	Restorations  int
	MeanBudget    float64
	AccuracyProxy float64
}

// ClassMetrics aggregates the sessions of one stream class (or, for
// Result.Aggregate, every session).
type ClassMetrics struct {
	Class    string
	Sessions int

	FramesArrived int
	FramesServed  int
	FramesDropped int
	QueriesServed int
	// QueriesDropped counts queries lost to the memory-pressure plane.
	QueriesDropped int
	// MeanFPS is the mean per-session achieved FPS (each session's rate over
	// its own presence window).
	MeanFPS float64
	// P50 / P99 are percentiles of the pooled frame completion latencies.
	P50, P99 float64
	// QueueP50 / QueueP99 are percentiles of the pooled queue waits (time
	// from arrival to service start) of served frames and queries.
	QueueP50, QueueP99 float64
	// DeadlineMisses counts served frames completing past their deadline.
	DeadlineMisses int
	// SLOAttained is the fraction of arrived frames served within their
	// class deadline (dropped frames count against it; 0 when none arrived).
	SLOAttained float64
	// Goodput is SLO-attained frames per second of simulated time — the
	// throughput that actually met the deadline.
	Goodput float64
	// DropRate is dropped / arrived frames (0 when nothing arrived).
	DropRate float64
	// RealTimeSessions counts sessions that served >= 95% of their frames.
	RealTimeSessions int
	// Degradation-plane accounting, all zero with Config.Degrade disabled:
	// budget steps across the class's sessions, plus the served-work-weighted
	// mean budget scale and accuracy-proxy retention (sessions that served
	// nothing carry no weight).
	Degradations  int
	Restorations  int
	MeanBudget    float64
	AccuracyProxy float64
}

// DeviceMetrics summarises one fleet member.
type DeviceMetrics struct {
	// Sessions counts sessions the balancer assigned to this device.
	Sessions      int
	FramesServed  int
	QueriesServed int
	// Utilization is this device's busy time / duration (including any
	// page-movement time the memory-pressure plane charged).
	Utilization float64
	// PeakResidentKV is the high-water mark of DeviceState.ResidentKV across
	// the run: the KV owned by the device's admitted sessions, counting any
	// pages spilled to the backing store (so under spilling it can exceed
	// the device's physical pool). Tracked whether or not the
	// memory-pressure plane is enabled.
	PeakResidentKV int
	// Batches counts hardware steps the device executed: a solo query or a
	// coalesced frame batch each count one (so FramesServed/Batches bounds
	// the mean frame batch from below; with a batch cap of 1 every served
	// item is its own step).
	Batches int
	// MeanQueueWait is the mean time served frames and queries spent queued
	// before service started on this device.
	MeanQueueWait float64
	// Memory-pressure plane counters, all zero when Config.KV is disabled:
	// pages moved between device memory and the backing store, the seconds
	// charged for that movement, and admission-control outcomes.
	PagesIn, PagesOut                int
	PageInTime, PageOutTime          float64
	SessionsQueued, SessionsRejected int
	// Control-plane counters, all zero without a controller: sessions
	// migrated onto / off this device and the seconds migration occupied
	// its timeline (this device's leg only).
	MigrationsIn, MigrationsOut int
	MigrationTime               float64
	// Degradation-plane counters, zero with Config.Degrade disabled: budget
	// steps taken by sessions while resident on this device.
	Degradations, Restorations int
}

// Result is a serving run's outcome.
type Result struct {
	PerStream []StreamMetrics
	// PerClass aggregates sessions by stream class, in mix order; Aggregate
	// pools every session.
	PerClass  []ClassMetrics
	Aggregate ClassMetrics
	// PerDevice summarises each fleet member.
	PerDevice []DeviceMetrics
	// Memory aggregates the KV memory-pressure plane across the fleet
	// (zero when Config.KV is disabled).
	Memory MemoryMetrics
	// Migrations aggregates controller-driven session mobility (zero
	// without a controller).
	Migrations MigrationMetrics
	// RealTime reports whether every stream served >= 95% of its frames.
	RealTime bool
	// Utilization is fleet busy time / (duration * devices).
	Utilization float64
}

// event kinds, in the order they sort at equal timestamps within a session.
const (
	evStart = iota // session joins: balancer assignment
	evFrame        // video frame arrival
	evQuery        // user query arrival
	evEnd          // session leaves: balancer state release
	// evStep is a device wake-up: the device is (or becomes) free and forms
	// its next step. Step events carry the device index in the session field
	// and draw seq numbers above every arrival's, so at equal timestamps
	// arrivals enqueue before the step forms.
	evStep
	// evControl is a fleet-controller tick (session field unused, -1).
	// Control events draw seq numbers above every arrival's but below the
	// step range, so at equal timestamps a tick sees the arrivals that just
	// landed and acts before any batch forms.
	evControl
)

// event is one arrival, controller tick or device wake-up.
type event struct {
	at      float64
	session int
	kind    int
	seq     int
}

// before orders the event heap: by time, then schedule sequence.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Derived-seed domains: each randomness consumer hashes its own salt into
// the config seed so the per-session arrival jitter (salt 0) stays a pure
// function of (Seed, session) regardless of churn or mix settings — adding a
// class or enabling churn never perturbs an existing session's schedule.
// Churned sessions draw everything (jitter, class, lifetime) from the
// churn-session domain keyed by their arrival ordinal, NOT their session
// index, so changing Config.Streams never re-randomises the churn
// population — the monotonicity MaxRealTimeStreams depends on.
const (
	classSeedSalt    = 0x00C1A55E5
	churnSeedSalt    = 0x0C4312A15
	lifeSeedSalt     = 0x011FE7113
	churnSessionSalt = 0x05E551035
)

// expDraw samples an exponential with the given mean.
func expDraw(rng *mathx.RNG, mean float64) float64 {
	return expFromUniform(rng.Float64(), mean)
}

// expFromUniform maps a uniform draw in [0, 1) through the exponential
// inverse CDF, clamped strictly away from 0: a draw of exactly 0 would
// otherwise yield a zero inter-arrival gap or a zero-length session
// lifetime, producing simultaneous events whose heap order is only
// tie-break-dependent. The clamp is far below any simulated timescale, so
// every other draw is unchanged.
func expFromUniform(u, mean float64) float64 {
	d := -mean * math.Log(1-u)
	if d <= 0 {
		return mean * 1e-12
	}
	return d
}

// session is one video session's static plan: its class, presence window,
// jitter seed and (once assigned) device.
type session struct {
	class      int
	start, end float64
	device     int
	// seed drives the session's arrival jitter; a pure function of
	// (Config.Seed, index) for initial sessions and of (Config.Seed, churn
	// ordinal) for churned ones.
	seed uint64
}

// buildSessions lays out the run's session population: Streams sessions at
// t=0 plus Poisson arrivals, classes drawn from the weighted mix, lifetimes
// truncating the presence window. Everything is a pure function of cfg, and
// churned sessions are seeded by arrival ordinal in their own domain, so
// the churn population is invariant under changes to cfg.Streams.
func buildSessions(cfg Config, classes []StreamClass) []session {
	var totalWeight float64
	for _, c := range classes {
		totalWeight += c.Weight
	}
	// pickClass and endOf key their draws on a domain seed (the initial or
	// churn session domain) plus the session's ordinal within that domain.
	// The Churn hooks, when set, consume the same privately seeded RNG as the
	// draw they replace, so the hook and built-in paths never share state.
	pickClass := func(domain uint64, i int, start float64) int {
		if cfg.Churn.Class != nil {
			rng := mathx.NewRNG(parallel.SeedFor(domain^classSeedSalt, i))
			c := cfg.Churn.Class(rng, i, start)
			if c < 0 || c >= len(classes) {
				panic(fmt.Sprintf("serve: Churn.Class returned %d with %d classes", c, len(classes)))
			}
			return c
		}
		if len(classes) == 1 {
			return 0
		}
		x := mathx.NewRNG(parallel.SeedFor(domain^classSeedSalt, i)).Float64() * totalWeight
		for c := range classes {
			x -= classes[c].Weight
			if x < 0 {
				return c
			}
		}
		return len(classes) - 1
	}
	endOf := func(domain uint64, i int, start float64) float64 {
		var life float64
		if cfg.Churn.Lifetime != nil {
			life = cfg.Churn.Lifetime(mathx.NewRNG(parallel.SeedFor(domain^lifeSeedSalt, i)), i, start)
			if !(life > 0) { // non-positive or NaN: stays for the rest of the run
				return cfg.Duration
			}
		} else {
			if cfg.Churn.MeanLifetime <= 0 {
				return cfg.Duration
			}
			life = expDraw(mathx.NewRNG(parallel.SeedFor(domain^lifeSeedSalt, i)), cfg.Churn.MeanLifetime)
		}
		end := start + life
		if end > cfg.Duration {
			end = cfg.Duration
		}
		return end
	}

	sessions := make([]session, 0, cfg.Streams)
	for s := 0; s < cfg.Streams; s++ {
		sessions = append(sessions, session{
			class: pickClass(cfg.Seed, s, 0), end: endOf(cfg.Seed, s, 0),
			device: -1, seed: parallel.SeedFor(cfg.Seed, s),
		})
	}
	switch {
	case cfg.Churn.Arrivals != nil:
		domain := cfg.Seed ^ churnSessionSalt
		rng := mathx.NewRNG(parallel.SeedFor(cfg.Seed^churnSeedSalt, 0))
		for i, t := range cfg.Churn.Arrivals(rng, cfg.Duration) {
			// Out-of-window times are skipped but keep their ordinal, so a
			// trace replayed with a shorter duration still seeds and classes
			// its surviving sessions identically.
			if !(t >= 0) || t >= cfg.Duration {
				continue
			}
			sessions = append(sessions, session{
				class: pickClass(domain, i, t), start: t, end: endOf(domain, i, t),
				device: -1, seed: parallel.SeedFor(domain, i),
			})
		}
	case cfg.Churn.ArrivalRate > 0:
		domain := cfg.Seed ^ churnSessionSalt
		rng := mathx.NewRNG(parallel.SeedFor(cfg.Seed^churnSeedSalt, 0))
		i := 0
		for t := expDraw(rng, 1/cfg.Churn.ArrivalRate); t < cfg.Duration; t += expDraw(rng, 1/cfg.Churn.ArrivalRate) {
			sessions = append(sessions, session{
				class: pickClass(domain, i, t), start: t, end: endOf(domain, i, t),
				device: -1, seed: parallel.SeedFor(domain, i),
			})
			i++
		}
	}
	return sessions
}

func validate(cfg Config, classes []StreamClass) {
	if cfg.Duration <= 0 || (cfg.Streams <= 0 && !cfg.Churn.hasArrivals()) {
		panic(fmt.Sprintf("serve: invalid config streams=%d duration=%v arrival_rate=%v",
			cfg.Streams, cfg.Duration, cfg.Churn.ArrivalRate))
	}
	if cfg.Streams < 0 || cfg.Churn.ArrivalRate < 0 || cfg.Churn.MeanLifetime < 0 || cfg.Devices < 0 {
		panic(fmt.Sprintf("serve: negative config field: %+v", cfg))
	}
	for _, c := range classes {
		// Real-time classes divide by FPS (the frame schedule and the drop
		// threshold's frame-interval scale), so NaN/Inf must fail here, not
		// corrupt the timeline: `!(x > 0)` also catches NaN.
		if !(c.Stream.FPS > 0) || math.IsInf(c.Stream.FPS, 0) {
			panic(fmt.Sprintf("serve: stream class %q: FPS must be a positive finite number, got %v (the frame schedule and drop threshold divide by it)",
				c.Name, c.Stream.FPS))
		}
		if c.Weight <= 0 {
			panic(fmt.Sprintf("serve: class %q needs positive weight", c.Name))
		}
		if c.SLO < 0 || math.IsNaN(c.SLO) {
			panic(fmt.Sprintf("serve: class %q: negative SLO %v", c.Name, c.SLO))
		}
	}
	if cfg.Scheduler.BatchMax < 0 {
		panic(fmt.Sprintf("serve: negative scheduler batch cap %d", cfg.Scheduler.BatchMax))
	}
	if cfg.Scheduler.SLO < 0 || math.IsNaN(cfg.Scheduler.SLO) {
		panic(fmt.Sprintf("serve: negative scheduler SLO %v", cfg.Scheduler.SLO))
	}
	if cfg.KV.Capacity < 0 && cfg.KV.Capacity != AutoCapacity {
		panic(fmt.Sprintf("serve: KV capacity %v must be positive, 0 (disabled) or AutoCapacity", cfg.KV.Capacity))
	}
	if cfg.KV.PageTokens < 0 {
		panic(fmt.Sprintf("serve: negative KV page size %d", cfg.KV.PageTokens))
	}
	if n := len(cfg.DevSpecs); n > 0 {
		nDev := cfg.Devices
		if nDev <= 0 {
			nDev = 1
		}
		if n != nDev {
			panic(fmt.Sprintf("serve: %d DevSpecs for a %d-device fleet", n, nDev))
		}
	}
	if cfg.Control.Interval < 0 || math.IsNaN(cfg.Control.Interval) {
		panic(fmt.Sprintf("serve: negative control interval %v", cfg.Control.Interval))
	}
	if cfg.Degrade.enabled() {
		// `!(x > 0 && ...)` also catches NaN.
		if s := cfg.Degrade.Step; s != 0 && !(s > 0 && s < 1) {
			panic(fmt.Sprintf("serve: degrade step %v must be in (0, 1) or 0 for the default", s))
		}
		if f := cfg.Degrade.Floor; f != 0 && !(f > 0 && f <= 1) {
			panic(fmt.Sprintf("serve: degrade floor %v must be in (0, 1] or 0 for the default", f))
		}
	}
}

// Run executes the serving simulation.
func Run(cfg Config) Result {
	classes := cfg.classes()
	validate(cfg, classes)
	sessions := buildSessions(cfg, classes)
	nDev := cfg.Devices
	if nDev <= 0 {
		nDev = 1
	}
	// Homogeneous fleets share one analytic simulator (hwsim.Sim is
	// stateless); heterogeneous fleets get one per device spec.
	sims := make([]*hwsim.Sim, nDev)
	if len(cfg.DevSpecs) == 0 {
		sim := hwsim.NewSim(cfg.Dev, hwsim.Llama3_8B(), cfg.Pol)
		for d := range sims {
			sims[d] = sim
		}
	} else {
		for d := range sims {
			sims[d] = hwsim.NewSim(cfg.DevSpecs[d], hwsim.Llama3_8B(), cfg.Pol)
		}
	}
	bal := cfg.Balancer
	if bal == nil {
		bal = NewRoundRobin()
	}
	bal.Reset(nDev)

	// Build the arrival schedule: sessions are independent, so each one's
	// arrival process is generated concurrently from its own derived seed
	// (parallel.SeedFor keeps session s's jitter a pure function of cfg.Seed
	// and s). The ordered fan-in and the deterministic seq renumbering below
	// make the merged schedule identical for any worker count.
	perSession := parallel.Map(cfg.Workers, len(sessions), func(s int) []event {
		sess := sessions[s]
		sc := classes[sess.class].Stream
		rng := mathx.NewRNG(sess.seed)
		interval := 1 / sc.FPS
		evs := []event{{at: sess.start, session: s, kind: evStart}}
		// Phase-shift sessions so arrivals interleave.
		phase := rng.Float64() * interval
		for t := sess.start + phase; t < sess.end; t += interval {
			evs = append(evs, event{at: t, session: s, kind: evFrame})
		}
		if sc.QueryEvery > 0 {
			for t := sess.start + sc.QueryEvery*(0.5+rng.Float64()); t < sess.end; t += sc.QueryEvery {
				evs = append(evs, event{at: t, session: s, kind: evQuery})
			}
		}
		evs = append(evs, event{at: sess.end, session: s, kind: evEnd})
		return evs
	})
	var events minHeap[event]
	seq := 0
	for _, evs := range perSession {
		for _, ev := range evs {
			ev.seq = seq
			seq++
			events = append(events, ev)
		}
	}
	// Controller ticks seq above every arrival (and below the step range,
	// which starts at the heap length): at equal timestamps a
	// tick sees the arrivals that just landed and runs before batches form.
	if cfg.Control.enabled() {
		for _, t := range cfg.Control.tickTimes(cfg.Duration) {
			events = append(events, event{at: t, session: -1, kind: evControl, seq: seq})
			seq++
		}
	}
	events.init()

	sched, batchMax := cfg.Scheduler.Effective()
	e := &engine{
		cfg: cfg, classes: classes, sims: sims, sessions: sessions,
		nDev: nDev, bal: bal,
		events: events, sched: sched, batchMax: batchMax,
		ready:         make([]minHeap[readyItem], nDev),
		stepScheduled: make([]bool, nDev),
		stepSeq:       seq,
		pending:       make([]int, len(sessions)),
		ended:         make([]bool, len(sessions)),
		reqs:          make([]hwsim.StepReq, 0, batchMax),
		kv:            make([]int, len(sessions)),
		metrics:       make([]StreamMetrics, len(sessions)),
		latencies:     make([][]float64, len(sessions)),
		waits:         make([][]float64, len(sessions)),
		devs:          make([]DeviceState, nDev),
		devMetrics:    make([]DeviceMetrics, nDev),
		waitSum:       make([]float64, nDev),
		waitN:         make([]int, nDev),
		slo:           make([]float64, len(classes)),
		alive:         make([]bool, len(sessions)),
		resident:      make([]bool, len(sessions)),
	}
	for s := range e.kv {
		e.kv[s] = classes[sessions[s].class].Stream.StartKV
	}
	for d := range e.devs {
		e.devs[d].Index = d
		e.devs[d].ClassSessions = make([]int, len(classes))
	}
	for c := range classes {
		v := classes[c].SLO
		if v <= 0 {
			v = cfg.Scheduler.SLO
		}
		if v <= 0 {
			v = 1 / classes[c].Stream.FPS
		}
		e.slo[c] = v
	}
	e.tel = cfg.Telemetry.Sink
	e.prof = cfg.Telemetry.Profile
	var pageAcct *kvpool.Account
	if e.prof != nil {
		// One compute-phase account across the fleet: homogeneous fleets
		// share a sim, heterogeneous ones each point at the same account,
		// and degradation-scaled copies inherit the pointer via Scaled.
		for d := range sims {
			sims[d].Phases = &e.prof.Sim
		}
		pageAcct = &e.prof.Pages
	}
	e.plane = newKVPlane(cfg, nDev, len(sessions), pageAcct)
	if e.plane != nil {
		for d := range e.devs {
			e.devs[d].CapacityPages = e.plane.pools[d].CapacityPages()
			e.devs[d].FreePages = e.devs[d].CapacityPages
		}
	}
	e.deg = newDegradePlane(cfg, len(sessions), nDev)

	e.run()
	kv, metrics, latencies := e.kv, e.metrics, e.latencies
	devs, devMetrics, plane := e.devs, e.devMetrics, e.plane

	var busy float64
	for d := range devs {
		busy += devs[d].Busy
		devMetrics[d].Utilization = clampUtil(devs[d].Busy / cfg.Duration)
		if e.waitN[d] > 0 {
			devMetrics[d].MeanQueueWait = e.waitSum[d] / float64(e.waitN[d])
		}
	}
	if plane != nil {
		for d := range plane.pools {
			st := plane.pools[d].Stats()
			dm := &devMetrics[d]
			dm.PagesIn, dm.PagesOut = st.PagesIn, st.PagesOut
			dm.PageInTime, dm.PageOutTime = st.PageInTime, st.PageOutTime
		}
	}
	res := Result{
		PerStream: metrics, PerDevice: devMetrics, RealTime: true,
		Utilization: clampUtil(busy / (cfg.Duration * float64(nDev))),
	}
	if plane != nil {
		res.Memory = plane.memory(devMetrics)
	}
	res.Migrations = e.mig
	// Post-barrier reduction: each session's latency sort and percentiles are
	// independent, so they run across the pool; the real-time verdict folds
	// in session order afterwards.
	parallel.ForEach(cfg.Workers, len(sessions), func(s int) {
		m := &metrics[s]
		m.Class = classes[sessions[s].class].Name
		m.Device = sessions[s].device
		if window := sessions[s].end - sessions[s].start; window > 0 {
			m.AchievedFPS = float64(m.FramesServed) / window
		}
		m.FinalKV = kv[s]
		if len(latencies[s]) > 0 {
			sort.Float64s(latencies[s])
			m.P50 = mathx.Percentile(latencies[s], 50)
			m.P99 = mathx.Percentile(latencies[s], 99)
		}
		if e.deg != nil && e.deg.servedN[s] > 0 {
			n := float64(e.deg.servedN[s])
			m.MeanBudget = e.deg.budgetSum[s] / n
			m.AccuracyProxy = e.deg.retainSum[s] / n
		}
	})
	for s := range metrics {
		m := &metrics[s]
		if m.FramesArrived > 0 && float64(m.FramesServed) < 0.95*float64(m.FramesArrived) {
			res.RealTime = false
		}
	}
	res.PerClass, res.Aggregate = reduceClasses(classes, sessions, metrics, latencies, e.waits, cfg.Duration)
	return res
}

// engine bundles one Run's mutable state: the event loop (run), session
// placement and admission, the per-device ready heaps and step formation
// (scheduler.go), and the accounting behind Result. The loop is
// single-threaded; Workers parallelism stays confined to schedule
// construction and metric reduction.
type engine struct {
	cfg     Config
	classes []StreamClass
	// sims holds each device's analytic simulator; homogeneous fleets share
	// one instance across all entries.
	sims     []*hwsim.Sim
	sessions []session
	nDev     int
	bal      Balancer

	kv        []int
	metrics   []StreamMetrics
	latencies [][]float64
	// waits collects per-session queue waits (service start minus arrival)
	// of served frames and queries; reduceClasses pools them into the class
	// queue-wait percentiles.
	waits      [][]float64
	devs       []DeviceState
	devMetrics []DeviceMetrics
	// waitSum / waitN accumulate per-device queue waits for MeanQueueWait.
	waitSum []float64
	waitN   []int
	// slo is the resolved per-class frame deadline in seconds (class SLO,
	// else SchedulerConfig.SLO, else one frame interval).
	slo   []float64
	plane *kvPlane
	// deg is the degradation plane's run state (nil with Config.Degrade
	// disabled — every pricing path then uses the unscaled sims).
	deg *degradePlane

	// events is the run's event heap: arrivals, controller ticks and device
	// wake-ups.
	events minHeap[event]
	// sched orders each device's ready heap; batchMax caps the frames per
	// step (both resolved from Config.Scheduler).
	sched    Scheduler
	batchMax int
	ready    []minHeap[readyItem]
	// stepScheduled marks devices with a wake-up already on the event heap;
	// stepSeq numbers wake-ups above every arrival's seq, so at equal
	// timestamps arrivals enqueue before the step forms.
	stepScheduled []bool
	stepSeq       int
	// pending counts each session's queued items; ended marks departed
	// sessions whose KV release waits for that count to reach zero.
	pending []int
	ended   []bool
	// reqs / members are per-step scratch buffers reused across steps.
	reqs    []hwsim.StepReq
	members []readyItem

	// Control-plane state, all idle without a controller: alive marks
	// sessions between their start and end events, resident marks sessions
	// holding a device slot (start to KV release, which can outlive the end
	// event while queued work drains), nDown counts out-of-service devices,
	// upScratch is the filtered-fleet scratch for placement, and mig
	// accumulates migration totals.
	alive     []bool
	resident  []bool
	nDown     int
	upScratch []DeviceState
	mig       MigrationMetrics

	// Telemetry-plane hooks, both nil with Config.Telemetry zero: tel
	// receives events and device stalls alongside cfg.Observer, prof
	// accumulates the run's phase attribution.
	tel  TelemetrySink
	prof *PhaseProfile
}

func (e *engine) observe(kind EventKind, at float64, s int, latency float64) {
	if !e.observing() {
		return
	}
	e.emit(Event{
		Kind: kind, Time: at, Session: s,
		Class: e.classes[e.sessions[s].class].Name, Device: e.sessions[s].device,
		Latency: latency, KV: e.kv[s],
	})
}

// trackPeak records device d's resident-KV high-water mark.
func (e *engine) trackPeak(d int) {
	if e.devs[d].ResidentKV > e.devMetrics[d].PeakResidentKV {
		e.devMetrics[d].PeakResidentKV = e.devs[d].ResidentKV
	}
}

// chargePaging occupies device d's serving timeline with page movement
// starting no earlier than now: spills and reloads ride the same PCIe
// link the device fetches KV over, so they serialise with service. kind
// classifies the occupation for the telemetry plane.
func (e *engine) chargePaging(d int, now, dur float64, kind StallKind) {
	if dur <= 0 {
		return
	}
	start := max(now, e.devs[d].Free)
	e.devs[d].Free = start + dur
	e.devs[d].Busy += dur
	if e.prof != nil {
		e.prof.addStall(kind, dur)
		e.prof.Charged += dur
	}
	if e.tel != nil {
		e.tel.Stall(d, start, dur, kind)
	}
}

// admit gives session s's KV to device d. Without the memory-pressure
// plane it simply becomes resident; with it, admission control rejects the
// session when its working set can never fit, queues it when the pool is
// full and spilling is disabled, and otherwise allocates (spilling cold
// sessions).
func (e *engine) admit(s, d int, at float64) {
	if e.plane == nil {
		e.devs[d].ResidentKV += e.kv[s]
		e.trackPeak(d)
		return
	}
	pool := e.plane.pools[d]
	if !pool.Fits(e.kv[s]) {
		e.plane.state[s] = sessRejected
		e.devMetrics[d].SessionsRejected++
		e.observe(EventSessionRejected, at, s, latencyNone)
		return
	}
	spill, ok := pool.Admit(s, e.kv[s], at)
	if !ok {
		e.plane.state[s] = sessQueued
		e.plane.queues[d] = append(e.plane.queues[d], s)
		e.devMetrics[d].SessionsQueued++
		e.observe(EventSessionQueued, at, s, latencyNone)
		return
	}
	e.plane.state[s] = sessAdmitted
	e.chargePaging(d, at, spill, StallPageOut)
	e.devs[d].ResidentKV += e.kv[s]
	e.trackPeak(d)
}

// drainQueue admits waiting sessions in FIFO order after pages freed;
// the head of the line blocks (no overtaking by smaller sessions).
func (e *engine) drainQueue(d int, at float64) {
	if e.devs[d].Down {
		// An out-of-service device admits nobody; Activate re-drains.
		return
	}
	q := e.plane.queues[d]
	i := 0
	for ; i < len(q); i++ {
		h := q[i]
		if e.plane.state[h] != sessQueued {
			continue // departed while waiting
		}
		spill, ok := e.plane.pools[d].Admit(h, e.kv[h], at)
		if !ok {
			break
		}
		e.chargePaging(d, at, spill, StallPageOut)
		e.plane.state[h] = sessAdmitted
		e.devs[d].ResidentKV += e.kv[h]
		e.trackPeak(d)
		e.observe(EventSessionAdmitted, at, h, latencyNone)
	}
	e.plane.queues[d] = q[i:]
}

// startSession handles an evStart arrival: balancer assignment, balancer
// state bookkeeping, and (with the memory-pressure plane) admission control.
func (e *engine) startSession(ev event) {
	sess := &e.sessions[ev.session]
	// Refresh the balancer's view of pool occupancy.
	e.refreshFreePages()
	var d int
	if e.nDown > 0 && e.nDown < e.nDev {
		// Some devices are out of service: place among the up ones (the
		// filtered view preserves Index). With every device down, fall
		// through to the full fleet — the session lands somewhere and its
		// frames drop until a device comes back.
		d = e.placeAvailable(ev.session, ev.at)
	} else {
		d = e.bal.Assign(ev.at, sess.class, e.devs)
		if d < 0 || d >= e.nDev {
			panic(fmt.Sprintf("serve: balancer %q returned device %d of %d", e.bal.Name(), d, e.nDev))
		}
	}
	sess.device = d
	e.alive[ev.session] = true
	e.resident[ev.session] = true
	e.devs[d].ActiveSessions++
	e.devs[d].ClassSessions[sess.class]++
	e.devMetrics[d].Sessions++
	e.observe(EventSessionStart, ev.at, ev.session, latencyNone)
	e.admit(ev.session, d, ev.at)
}

// releaseSession returns session s's KV to device d: the balancer-visible
// resident count drops and (with the plane) its pages free up, unblocking
// the admission queue. It runs at the session's end event, or — when queued
// work outlives the session — once its last pending item resolves (see
// resolve).
func (e *engine) releaseSession(s int, at float64) {
	d := e.sessions[s].device
	if e.plane == nil {
		e.devs[d].ResidentKV -= e.kv[s]
	} else {
		if e.plane.state[s] == sessAdmitted {
			e.devs[d].ResidentKV -= e.kv[s]
			e.plane.pools[d].Release(s)
			e.drainQueue(d, at)
		}
		e.plane.state[s] = sessGone
	}
	if e.deg != nil && e.deg.level[s] > 0 {
		e.devs[d].DegradedSessions--
	}
	e.resident[s] = false
}

// served records the queue-wait sample and deadline accounting for one
// served frame or query: wait is service start minus arrival, lat the
// completion latency. Frames completing past the class deadline count as
// deadline misses (they were still served — only DropThreshold discards
// work).
func (e *engine) served(s, d int, at, wait, lat float64, frame bool) {
	e.waits[s] = append(e.waits[s], wait)
	e.waitSum[d] += wait
	e.waitN[d]++
	if frame && lat > e.slo[e.sessions[s].class] {
		e.metrics[s].DeadlineMisses++
		e.observe(EventDeadlineMissed, at, s, lat)
	}
	e.degradeServed(s, lat, frame)
}

// run is the serving event loop: arrivals enqueue onto their device's ready
// heap, and each device forms its next policy-ordered step whenever it is
// free (a wake-up event).
func (e *engine) run() {
	for len(e.events) > 0 {
		ev := e.events.pop()
		switch ev.kind {
		case evStep:
			e.stepScheduled[ev.session] = false
			e.formBatch(ev.session, ev.at)
		case evControl:
			e.handleControl(ev.at)
		case evStart:
			e.startSession(ev)
		case evEnd:
			e.endSession(ev.session, ev.at)
		case evFrame, evQuery:
			e.enqueue(ev)
		}
	}
}

// endSession handles an evEnd arrival: the session leaves its device's
// balancer-visible counts, and its KV is released now or, when queued work
// outlives the session, once that work resolves.
func (e *engine) endSession(s int, at float64) {
	sess := &e.sessions[s]
	d := sess.device
	e.devs[d].ActiveSessions--
	e.devs[d].ClassSessions[sess.class]--
	e.alive[s] = false
	if e.pending[s] > 0 {
		e.ended[s] = true
	} else {
		e.releaseSession(s, at)
	}
	e.observe(EventSessionEnd, at, s, latencyNone)
}

// drop accounts one frame or query of session s, arrived at `at`, that will
// never be served.
func (e *engine) drop(s int, at float64, query bool) {
	if query {
		e.metrics[s].QueriesDropped++
		e.observe(EventQueryDropped, at, s, latencyNone)
	} else {
		e.metrics[s].FramesDropped++
		e.observe(EventFrameDropped, at, s, latencyNone)
	}
}

func clampUtil(u float64) float64 {
	if u > 1 {
		return 1
	}
	return u
}

// reduceClasses pools per-session metrics into per-class and aggregate
// summaries. Latency and queue-wait percentiles are computed over the pooled
// (re-sorted) samples of each group, so they reflect frames, not sessions.
func reduceClasses(classes []StreamClass, sessions []session, metrics []StreamMetrics, latencies, waits [][]float64, duration float64) ([]ClassMetrics, ClassMetrics) {
	perClass := make([]ClassMetrics, len(classes))
	pooled := make([][]float64, len(classes))
	pooledWait := make([][]float64, len(classes))
	for c := range classes {
		perClass[c].Class = classes[c].Name
	}
	agg := ClassMetrics{Class: "all"}
	var aggPool, aggWait []float64
	var aggFPS float64
	fps := make([]float64, len(classes))
	// Served-work-weighted budget/proxy accumulators per class plus the
	// aggregate (index len(classes)); weight is served frames + queries, so a
	// session's budget only counts while it actually served at it.
	budgetW := make([]float64, len(classes)+1)
	budgetSum := make([]float64, len(classes)+1)
	proxySum := make([]float64, len(classes)+1)
	for s, m := range metrics {
		c := sessions[s].class
		cm := &perClass[c]
		cm.Sessions++
		cm.FramesArrived += m.FramesArrived
		cm.FramesServed += m.FramesServed
		cm.FramesDropped += m.FramesDropped
		cm.QueriesServed += m.QueriesServed
		cm.QueriesDropped += m.QueriesDropped
		cm.DeadlineMisses += m.DeadlineMisses
		cm.Degradations += m.Degradations
		cm.Restorations += m.Restorations
		if w := float64(m.FramesServed + m.QueriesServed); m.MeanBudget > 0 && w > 0 {
			for _, i := range [2]int{c, len(classes)} {
				budgetW[i] += w
				budgetSum[i] += m.MeanBudget * w
				proxySum[i] += m.AccuracyProxy * w
			}
		}
		fps[c] += m.AchievedFPS
		if m.FramesArrived > 0 && float64(m.FramesServed) >= 0.95*float64(m.FramesArrived) {
			cm.RealTimeSessions++
		}
		pooled[c] = append(pooled[c], latencies[s]...)
		pooledWait[c] = append(pooledWait[c], waits[s]...)
		aggFPS += m.AchievedFPS
		aggPool = append(aggPool, latencies[s]...)
		aggWait = append(aggWait, waits[s]...)
	}
	finish := func(cm *ClassMetrics, pool, wait []float64, fpsSum float64) {
		if cm.Sessions > 0 {
			cm.MeanFPS = fpsSum / float64(cm.Sessions)
		}
		if cm.FramesArrived > 0 {
			cm.DropRate = float64(cm.FramesDropped) / float64(cm.FramesArrived)
			cm.SLOAttained = float64(cm.FramesServed-cm.DeadlineMisses) / float64(cm.FramesArrived)
		}
		if duration > 0 {
			cm.Goodput = float64(cm.FramesServed-cm.DeadlineMisses) / duration
		}
		if len(pool) > 0 {
			sort.Float64s(pool)
			cm.P50 = mathx.Percentile(pool, 50)
			cm.P99 = mathx.Percentile(pool, 99)
		}
		if len(wait) > 0 {
			sort.Float64s(wait)
			cm.QueueP50 = mathx.Percentile(wait, 50)
			cm.QueueP99 = mathx.Percentile(wait, 99)
		}
	}
	for c := range perClass {
		finish(&perClass[c], pooled[c], pooledWait[c], fps[c])
		if budgetW[c] > 0 {
			perClass[c].MeanBudget = budgetSum[c] / budgetW[c]
			perClass[c].AccuracyProxy = proxySum[c] / budgetW[c]
		}
		agg.Sessions += perClass[c].Sessions
		agg.FramesArrived += perClass[c].FramesArrived
		agg.FramesServed += perClass[c].FramesServed
		agg.FramesDropped += perClass[c].FramesDropped
		agg.QueriesServed += perClass[c].QueriesServed
		agg.QueriesDropped += perClass[c].QueriesDropped
		agg.DeadlineMisses += perClass[c].DeadlineMisses
		agg.RealTimeSessions += perClass[c].RealTimeSessions
		agg.Degradations += perClass[c].Degradations
		agg.Restorations += perClass[c].Restorations
	}
	finish(&agg, aggPool, aggWait, aggFPS)
	if w := budgetW[len(classes)]; w > 0 {
		agg.MeanBudget = budgetSum[len(classes)] / w
		agg.AccuracyProxy = proxySum[len(classes)] / w
	}
	return perClass, agg
}

// MaxRealTimeStreams bisects the largest initial stream count (up to limit)
// the system serves in real time. The bisection relies on the real-time
// verdict being monotone in the stream count, which holds because initial
// sessions' schedules are pure functions of (Seed, index) and the churn
// population is seeded by arrival ordinal in its own domain: adding an
// initial session perturbs nothing else, it only adds device load.
func MaxRealTimeStreams(cfg Config, limit int) int {
	lo, hi := 0, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		c := cfg
		c.Streams = mid
		if Run(c).RealTime {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
