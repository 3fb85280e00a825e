package serve

import (
	"fmt"
	"math"
	"sort"
)

// ControlConfig attaches a fleet controller to a run: at each tick the
// Controller sees the live fleet through a FleetOps facade and may drain or
// fail devices, bring them back, and migrate resident sessions — the
// primitives the cluster tier builds node faults, autoscaling and
// rebalancing from. Ticks are events on the run's own heap (after any
// arrivals at the same instant, before any scheduler step forms), so
// controller decisions are deterministic for every Workers setting. The zero
// value disables the plane entirely and Run reduces exactly to the
// uncontrolled timeline.
type ControlConfig struct {
	// Interval adds periodic ticks at Interval, 2*Interval, ... < Duration
	// (0 disables periodic ticks).
	Interval float64
	// At adds explicit tick times (out-of-window times are ignored).
	At []float64
	// Controller runs at every tick; nil disables the plane.
	Controller func(now float64, ops *FleetOps)
}

func (c ControlConfig) enabled() bool {
	return c.Controller != nil && (c.Interval > 0 || len(c.At) > 0)
}

// tickTimes returns the merged, sorted tick schedule within [0, duration).
func (c ControlConfig) tickTimes(duration float64) []float64 {
	var ts []float64
	if c.Interval > 0 {
		for t := c.Interval; t < duration; t += c.Interval {
			ts = append(ts, t)
		}
	}
	for _, t := range c.At {
		if t >= 0 && t < duration && !math.IsNaN(t) {
			ts = append(ts, t)
		}
	}
	sort.Float64s(ts)
	return ts
}

// MigrationConfig prices live session migration. The cluster tier supplies a
// Cost built on kvpool.Transfer (source page-out over PCIe to its backing
// store) plus a memsim.NICLink leg for cross-node moves; nil makes moves
// free (unit tests only — production configs should always price moves).
type MigrationConfig struct {
	// Cost returns the seconds a live move of kvTokens of KV from device src
	// to device dst occupies each timeline: srcTime lands on the source
	// device (page-out + send), dstTime on the destination (receive +
	// page-in).
	Cost func(src, dst, kvTokens int) (srcTime, dstTime float64)
}

// MigrationMetrics aggregates session mobility across a run; all fields are
// zero when no controller migrated anything.
type MigrationMetrics struct {
	// Live counts completed live migrations (KV moved intact); Lossy counts
	// failure re-placements, where the device's KV state is lost and the
	// session restarts from its class StartKV at the destination.
	Live, Lossy int
	// Tokens is the total KV tokens moved live.
	Tokens int
	// Time is the total seconds migration occupied device timelines (source
	// and destination legs both count).
	Time float64
}

// FleetOps is the controller's handle on the live fleet. All mutations are
// applied synchronously on the single-threaded event loop at the tick's
// timestamp.
type FleetOps struct {
	e  *engine
	at float64
}

// Now returns the tick's simulation time.
func (o *FleetOps) Now() float64 { return o.at }

// Devices returns the live fleet state. The slice is the engine's own —
// treat it as read-only and mutate only through FleetOps methods.
func (o *FleetOps) Devices() []DeviceState { return o.e.devs }

// Down reports whether device d is currently out of service.
func (o *FleetOps) Down(d int) bool { return o.e.devs[d].Down }

// SessionsOn returns the sessions currently occupying device d (assigned
// and not yet released), in session-index order.
func (o *FleetOps) SessionsOn(d int) []int { return o.e.sessionsOn(d) }

// KV returns session s's current KV length in tokens.
func (o *FleetOps) KV(s int) int { return o.e.kv[s] }

// Backlog returns the seconds of work device d has waiting at the tick: the
// larger of the in-flight step's remaining time and the age of the oldest
// item on its ready heap (0 when idle).
func (o *FleetOps) Backlog(d int) float64 {
	b := o.e.devs[d].Free - o.at
	for _, it := range o.e.ready[d] {
		b = max(b, o.at-it.at)
	}
	return max(b, 0)
}

// Drain takes device d out of service gracefully: the device stops
// receiving new sessions, and every resident session migrates live to a
// destination the run's balancer picks among the remaining up devices —
// KV pages move at the configured migration cost, charged to both
// timelines. Sessions stay in place (and their frames drop) if no up
// device remains.
func (o *FleetOps) Drain(d int) { o.e.takeDown(d, o.at, false) }

// Fail kills device d: queued work drops, and every resident session loses
// its device-side KV state — it re-enters at a surviving device with its
// class StartKV (a lossy re-placement, no transfer cost).
func (o *FleetOps) Fail(d int) { o.e.takeDown(d, o.at, true) }

// Activate returns device d to service: it becomes eligible for placement
// again and (with the memory-pressure plane) re-admits its waiting queue.
func (o *FleetOps) Activate(d int) {
	e := o.e
	if !e.devs[d].Down {
		return
	}
	e.devs[d].Down = false
	e.nDown--
	e.observeDevice(EventDeviceUp, o.at, d)
	if e.plane != nil {
		e.drainQueue(d, o.at)
	}
}

// Migrate moves one resident session live to device dst (a no-op when the
// session is not resident, already there, or dst is down). Out-of-range
// indices panic.
func (o *FleetOps) Migrate(s, dst int) {
	e := o.e
	if s < 0 || s >= len(e.sessions) || dst < 0 || dst >= e.nDev {
		panic(fmt.Sprintf("serve: Migrate(%d, %d) out of range (%d sessions, %d devices)",
			s, dst, len(e.sessions), e.nDev))
	}
	if !e.resident[s] || e.sessions[s].device == dst || e.devs[dst].Down {
		return
	}
	e.migrateSession(s, dst, o.at, false)
}

// handleControl runs one controller tick.
func (e *engine) handleControl(at float64) {
	e.cfg.Control.Controller(at, &FleetOps{e: e, at: at})
}

// sessionsOn lists the sessions currently occupying device d.
func (e *engine) sessionsOn(d int) []int {
	var out []int
	for s := range e.sessions {
		if e.resident[s] && e.sessions[s].device == d {
			out = append(out, s)
		}
	}
	return out
}

// takeDown marks device d out of service and moves its occupants off:
// live migration on drain, lossy re-placement on failure. Destinations come
// from the run's balancer restricted to up devices; occupants stay (frames
// dropping) when none remains.
func (e *engine) takeDown(d int, at float64, fail bool) {
	if e.devs[d].Down {
		return
	}
	e.devs[d].Down = true
	e.nDown++
	e.observeDevice(EventDeviceDown, at, d)
	if fail {
		e.dropReady(d, at)
	}
	for _, s := range e.sessionsOn(d) {
		dst := e.placeAvailable(s, at)
		if dst < 0 {
			continue // nowhere to go: the session stays and its frames drop
		}
		e.migrateSession(s, dst, at, fail)
	}
}

// placeAvailable picks a destination device for session s among the up
// devices through the run's balancer (-1 when every device is down). The
// filtered view preserves DeviceState.Index, which maps the pick back to
// the fleet.
func (e *engine) placeAvailable(s int, at float64) int {
	if e.nDown >= e.nDev {
		return -1
	}
	e.refreshFreePages()
	up := e.upScratch[:0]
	for i := range e.devs {
		if !e.devs[i].Down {
			up = append(up, e.devs[i])
		}
	}
	e.upScratch = up
	d := e.bal.Assign(at, e.sessions[s].class, up)
	if d < 0 || d >= len(up) {
		panic(fmt.Sprintf("serve: balancer %q returned device %d of %d up", e.bal.Name(), d, len(up)))
	}
	return up[d].Index
}

// refreshFreePages syncs the balancer-visible pool occupancy.
func (e *engine) refreshFreePages() {
	if e.plane == nil {
		return
	}
	for i := range e.devs {
		e.devs[i].FreePages = e.plane.pools[i].FreePages()
	}
}

// migrateSession moves session s from its device to dst. A live move
// (lossy=false) prices the KV transfer through cfg.Migration.Cost and
// charges the source and destination timelines; a lossy move (device
// failure) costs nothing but resets the session's KV to its class StartKV.
// Either way the session re-enters admission control at dst, so it may land
// queued or rejected there under memory pressure.
func (e *engine) migrateSession(s, dst int, at float64, lossy bool) {
	src := e.sessions[s].device
	if src == dst {
		return
	}
	class := e.sessions[s].class
	held := e.plane == nil || e.plane.state[s] == sessAdmitted
	if e.alive[s] {
		e.devs[src].ActiveSessions--
		e.devs[src].ClassSessions[class]--
		e.devs[dst].ActiveSessions++
		e.devs[dst].ClassSessions[class]++
	}
	if held {
		e.devs[src].ResidentKV -= e.kv[s]
	}
	if e.deg != nil && e.deg.level[s] > 0 {
		// The session keeps its degradation level across the move; the
		// resident-degraded count follows it to the destination.
		e.devs[src].DegradedSessions--
		e.devs[dst].DegradedSessions++
	}
	if e.plane != nil {
		switch e.plane.state[s] {
		case sessAdmitted:
			e.plane.pools[src].Release(s)
			e.drainQueue(src, at)
		case sessQueued:
			e.removeQueued(src, s)
		}
	}
	var cost float64
	if lossy {
		e.kv[s] = e.classes[class].Stream.StartKV
		e.mig.Lossy++
		e.devMetrics[src].MigrationsOut++
		e.devMetrics[dst].MigrationsIn++
	} else if held {
		var srcT, dstT float64
		if e.cfg.Migration.Cost != nil {
			srcT, dstT = e.cfg.Migration.Cost(src, dst, e.kv[s])
		}
		e.chargePaging(src, at, srcT, StallMigrateSend)
		e.chargePaging(dst, at, dstT, StallMigrateRecv)
		cost = srcT + dstT
		e.mig.Live++
		e.mig.Tokens += e.kv[s]
		e.mig.Time += cost
		e.devMetrics[src].MigrationsOut++
		e.devMetrics[src].MigrationTime += srcT
		e.devMetrics[dst].MigrationsIn++
		e.devMetrics[dst].MigrationTime += dstT
	}
	e.sessions[s].device = dst
	e.admit(s, dst, at)
	e.moveReady(s, src, dst, at)
	e.observeMigration(at, s, dst, cost)
}

// removeQueued drops session s from device d's admission queue (it is
// moving elsewhere; a stale entry must never admit it back here).
func (e *engine) removeQueued(d, s int) {
	q := e.plane.queues[d]
	for i, h := range q {
		if h == s {
			e.plane.queues[d] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// observeDevice emits a device-lifecycle event (no session attached).
func (e *engine) observeDevice(kind EventKind, at float64, d int) {
	if !e.observing() {
		return
	}
	e.emit(Event{Kind: kind, Time: at, Session: -1, Device: d, Latency: latencyNone})
}

// observeMigration emits EventSessionMigrated with the destination device
// and the total timeline seconds the move cost (NaN never occurs; lossy
// moves report 0).
func (e *engine) observeMigration(at float64, s, dst int, cost float64) {
	if !e.observing() {
		return
	}
	e.emit(Event{
		Kind: EventSessionMigrated, Time: at, Session: s,
		Class: e.classes[e.sessions[s].class].Name, Device: dst,
		Latency: cost, KV: e.kv[s],
	})
}
