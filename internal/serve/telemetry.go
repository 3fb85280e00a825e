package serve

import "vrex/internal/hwsim"

// PhaseProfile attributes every simulated device-second a run charges to a
// phase — the telemetry plane's one-level flamegraph. Attach one via
// Config.Profile; Run threads it through every pricing path:
//
//   - Sim accumulates compute phases (vision, weights, attention, exposed
//     prediction and retrieval fetch) inside hwsim.Chunk/Step.
//   - PageIn/PageOut/MigrationSend/MigrationRecv accumulate at the engine's
//     charge sites, so they cover exactly the paging and migration seconds
//     that landed on device timelines.
//   - Charged accumulates at every device Busy increment independently of
//     the buckets; Total() == Charged within float tolerance is the plane's
//     conservation invariant (nothing attributed twice, nothing lost).
type PhaseProfile struct {
	// Sim is the compute-phase account shared by every device simulator.
	Sim hwsim.PhaseAccount
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
func (p *PhaseProfile) addStall(kind EventKind, dur float64) {
	switch kind {
	case EventPageIn:
		p.PageIn += dur
	case EventPageOut:
		p.PageOut += dur
	case EventMigrateSend:
		p.MigrationSend += dur
	case EventMigrateRecv:
		p.MigrationRecv += dur
	default:
		// only the four stall kinds are charged as stalls
	}
}

// --- engine hooks ---

// profCharge mirrors a device Busy increment into the profile's Charged
// conservation counter.
func (e *engine) profCharge(dur float64) {
	if p := e.cfg.Profile; p != nil {
		p.Charged += dur
	}
}

// stall reports dur seconds of non-compute occupation of device d's timeline
// beginning at start: the profile folds it into its phase bucket and the
// Observer sees it as a stall event. Charged is the caller's business.
func (e *engine) stall(kind EventKind, d int, start, dur float64) {
	if p := e.cfg.Profile; p != nil {
		p.addStall(kind, dur)
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.Observe(Event{Kind: kind, Time: start, Session: -1, Device: d, Latency: dur})
	}
}

// pagingStalls reports inline frame/query paging (admission growth spill +
// touch page-out, then page-in) that the caller adds to the device timeline
// at start. Unlike chargePaging it does not touch Charged — the caller's
// Busy site does.
func (e *engine) pagingStalls(d int, start, out, in float64) {
	if out > 0 {
		e.stall(EventPageOut, d, start, out)
	}
	if in > 0 {
		e.stall(EventPageIn, d, start+out, in)
	}
}
