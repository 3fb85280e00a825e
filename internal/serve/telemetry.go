package serve

import (
	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
)

// StallKind classifies non-compute time the engine charges to a device
// timeline — KV page movement and migration legs. The telemetry plane
// renders these as device-lane stall slices alongside batches.
type StallKind int

const (
	// StallPageIn: spilled KV pages read back before service.
	StallPageIn StallKind = iota
	// StallPageOut: KV pages spilled to the backing store (admission spills,
	// reclaim on growth, queue drains).
	StallPageOut
	// StallMigrateSend: the source leg of a live session migration.
	StallMigrateSend
	// StallMigrateRecv: the destination leg of a live session migration.
	StallMigrateRecv
	// numStallKinds bounds the kind space for exhaustiveness tests.
	numStallKinds
)

// String names the kind for traces and tables.
func (k StallKind) String() string {
	switch k {
	case StallPageIn:
		return "kv-page-in"
	case StallPageOut:
		return "kv-page-out"
	case StallMigrateSend:
		return "migration-send"
	case StallMigrateRecv:
		return "migration-recv"
	}
	return "unknown"
}

// TelemetrySink extends Observer with device-stall callbacks: the engine
// reports every paging and migration occupation of a device timeline with
// its actual start (after queueing behind in-flight work) and duration.
// Like Observer, calls arrive from the single-threaded device loop in a
// deterministic order for every Workers setting.
type TelemetrySink interface {
	Observer
	// Stall reports dur seconds of non-compute occupation of device's
	// timeline beginning at start (simulated seconds).
	Stall(device int, start, dur float64, kind StallKind)
}

// PhaseProfile attributes every simulated device-second a run charges to a
// phase — the telemetry plane's one-level flamegraph. Attach one via
// Config.Telemetry; Run threads it through every pricing path:
//
//   - Sim accumulates compute phases (vision, weights, attention, exposed
//     prediction and retrieval fetch) inside hwsim.Chunk/Step.
//   - PageIn/PageOut/MigrationSend/MigrationRecv accumulate at the engine's
//     charge sites, so they cover exactly the paging and migration seconds
//     that landed on device timelines.
//   - Charged accumulates at every device Busy increment independently of
//     the buckets; Total() == Charged within float tolerance is the plane's
//     conservation invariant (nothing attributed twice, nothing lost).
//   - Pages is the kvpool mover-level account. It is informational: the
//     pool may price a partial reclaim and then fail the allocation, so
//     Pages can exceed the engine-charged paging time.
type PhaseProfile struct {
	// Sim is the compute-phase account shared by every device simulator.
	Sim hwsim.PhaseAccount
	// Pages is the mover-level page-transfer account (see note above).
	Pages kvpool.Account
	// PageIn / PageOut are engine-charged KV paging seconds per direction.
	PageIn, PageOut float64
	// MigrationSend / MigrationRecv are engine-charged live-migration legs.
	MigrationSend, MigrationRecv float64
	// Charged is the sum of every device Busy increment.
	Charged float64
}

// Total returns the attributed device-seconds: the sum of every phase
// bucket. It equals Charged within float tolerance (see the invariant
// note on the type).
func (p *PhaseProfile) Total() float64 {
	return p.Sim.Total() + p.PageIn + p.PageOut + p.MigrationSend + p.MigrationRecv
}

// addStall folds one engine-charged stall into its phase bucket.
func (p *PhaseProfile) addStall(kind StallKind, dur float64) {
	switch kind {
	case StallPageIn:
		p.PageIn += dur
	case StallPageOut:
		p.PageOut += dur
	case StallMigrateSend:
		p.MigrationSend += dur
	case StallMigrateRecv:
		p.MigrationRecv += dur
	}
}

// TelemetryConfig attaches the observability plane to a run. The zero value
// disables it entirely: Run prices and observes exactly as before, with no
// additional allocations on the hot path.
type TelemetryConfig struct {
	// Sink, when non-nil, receives every Event the engine emits (alongside
	// Config.Observer, which still sees the same stream) plus Stall
	// callbacks for paging and migration occupations.
	Sink TelemetrySink
	// Profile, when non-nil, accumulates the run's phase attribution.
	Profile *PhaseProfile
}

// --- engine hooks ---

// observing reports whether any event consumer is attached; observe sites
// skip Event construction entirely when not.
func (e *engine) observing() bool { return e.cfg.Observer != nil || e.tel != nil }

// emit delivers one event to the configured Observer and the telemetry sink
// (both see the identical stream, in the same deterministic order).
func (e *engine) emit(ev Event) {
	if e.cfg.Observer != nil {
		e.cfg.Observer.Observe(ev)
	}
	if e.tel != nil {
		e.tel.Observe(ev)
	}
}

// profCharge mirrors a device Busy increment into the profile's Charged
// conservation counter.
func (e *engine) profCharge(dur float64) {
	if e.prof != nil {
		e.prof.Charged += dur
	}
}

// profPaging attributes inline frame/query paging (admission growth spill +
// touch page-out, then page-in) that the caller adds to the device timeline
// at start, and reports the two stall slices on device d's lane. Unlike
// chargePaging it does not touch Charged — the caller's Busy site does.
func (e *engine) profPaging(d int, start, out, in float64) {
	if e.prof != nil {
		e.prof.PageOut += out
		e.prof.PageIn += in
	}
	if e.tel != nil {
		if out > 0 {
			e.tel.Stall(d, start, out, StallPageOut)
		}
		if in > 0 {
			e.tel.Stall(d, start+out, in, StallPageIn)
		}
	}
}
