// Package cluster simulates a geo-distributed fleet of serving fleets: nodes
// (each an internal/serve device fleet, possibly on different hardware) sit
// behind a global router that places arriving sessions, an autoscaler that
// drains and reactivates whole nodes on load, and a fault plane that injects
// node drains and failures. Sessions move between devices and nodes by live
// KV migration: pages leave the source through its kvpool.Transfer mover,
// cross a memsim.NICLink (LAN within a region, WAN across regions), and page
// in at the destination — both device timelines are charged, so migration is
// never free. It extends the paper's closing claim ("clear potential for
// scalable deployment in large-scale server environments") from one fleet to
// a cluster of them.
//
// A single-node cluster with no faults, no autoscaler and no rebalancing
// compiles to exactly the serve.Config it wraps — the composite balancer
// delegates straight to the node balancer and the control plane stays off —
// so Run reduces byte-identically to serve.Run (pinned by tests).
package cluster

import (
	"fmt"
	"math"

	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
	"vrex/internal/memsim"
	"vrex/internal/serve"
)

// NodeSpec describes one cluster node: a named fleet of identical devices in
// a region, on its own hardware spec.
type NodeSpec struct {
	// Name identifies the node in results ("node<i>" when empty).
	Name string
	// SpecName is the hwsim device registry name Spec resolved from, when the
	// node came through ParseNodes — FormatNodes needs it to render the list
	// back. Purely informational for Run.
	SpecName string
	// Region groups nodes by network locality: migrations within a region
	// cross the LAN link, migrations across regions the WAN link. Empty
	// regions all count as one region.
	Region string
	// Spec is the hardware of each of the node's devices.
	Spec hwsim.DeviceSpec
	// Devices is the node's fleet size (must be positive).
	Devices int
}

// RebalanceConfig lets the controller move sessions between nodes at each
// tick to even out load. The zero value disables rebalancing.
type RebalanceConfig struct {
	// MaxMoves caps live migrations per tick (0 disables rebalancing).
	MaxMoves int
	// Slack is the sessions-per-device imbalance tolerated between the most-
	// and least-loaded nodes before moves trigger (values below 1 read as 1,
	// so perfectly balanced fleets never churn).
	Slack float64
}

// Config describes a cluster run.
type Config struct {
	// Nodes is the cluster topology (at least one node).
	Nodes []NodeSpec
	// Base is the serving configuration every node shares: workload, classes,
	// churn, KV plane, scheduler, seed. Its Devices, DevSpecs, Dev, Balancer,
	// Control and Migration fields are owned by the cluster compiler and
	// overwritten; everything else passes through. Observer sees the
	// flattened fleet's event stream, stalls included (device indices are
	// global, in node declaration order), after the cluster's own window
	// accounting; Profile attributes the whole cluster's device-seconds.
	Base serve.Config
	// Router places arriving sessions on nodes; nil defaults to round-robin.
	Router Router
	// NodeBalancer builds each node's device balancer; nil defaults to
	// round-robin.
	NodeBalancer func() serve.Balancer
	// Autoscaler drains / reactivates whole nodes on load; nil disables.
	Autoscaler Autoscaler
	// InitialNodes is the number of nodes in service at t=0 when an
	// autoscaler is attached (the rest start drained, available for
	// scale-out). 0 or >= len(Nodes) starts everything; ignored without an
	// autoscaler.
	InitialNodes int
	// Faults injects node drains and failures (see Fault).
	Faults []Fault
	// Rebalance moves sessions between nodes on load imbalance.
	Rebalance RebalanceConfig
}

// controlInterval is the controller tick period in seconds when the
// autoscaler or rebalancer needs periodic ticks. It is also the SLO
// attainment window width.
const controlInterval = 1.0

// Window is one SLO attainment window of the run: frames are bucketed by
// arrival time, so a node fault shows up as a dip in the windows covering
// the recovery.
type Window struct {
	// Start / End bound the window in simulation seconds.
	Start, End float64
	// FramesServed / DeadlineMisses / FramesDropped count the frames arriving
	// in the window by outcome (misses are a subset of served).
	FramesServed, DeadlineMisses, FramesDropped int
	// Attained is the fraction of the window's arrived frames served within
	// deadline (1 when none arrived).
	Attained float64
}

// NodeMetrics summarises one node of a run.
type NodeMetrics struct {
	Name, Region string
	Devices      int
	// Sessions counts sessions placed on the node (migrations move sessions
	// without re-counting them here).
	Sessions      int
	FramesServed  int
	QueriesServed int
	// Utilization is the mean device utilization across the node.
	Utilization float64
	// MigrationsIn / MigrationsOut / MigrationTime aggregate the node's
	// device migration counters (time is the node's own timeline legs).
	MigrationsIn, MigrationsOut int
	MigrationTime               float64
	// Degradations / Restorations aggregate the node's degradation-plane
	// budget steps (zero with the plane disabled).
	Degradations, Restorations int
}

// Result is a cluster run's outcome.
type Result struct {
	// Serve is the underlying fleet result over all nodes' devices (device
	// indices are contiguous per node, in Nodes order).
	Serve serve.Result
	// PerNode folds the device metrics back into nodes.
	PerNode []NodeMetrics
	// Windows is the SLO attainment series (one-second buckets).
	Windows []Window
}

// node fault / autoscaler ownership of a down node.
const (
	nodeUp = iota
	downByFault
	downByScaler
)

// fault event kinds, in application order at equal times.
const (
	fevDrain = iota
	fevFail
	fevRecover
)

type faultEvent struct {
	at   float64
	kind int
	node int
}

func validateCluster(cfg Config) {
	if len(cfg.Nodes) == 0 {
		panic("cluster: no nodes configured")
	}
	for i, n := range cfg.Nodes {
		if n.Devices <= 0 {
			panic(fmt.Sprintf("cluster: node %d (%s) has %d devices", i, n.Name, n.Devices))
		}
	}
	for _, f := range cfg.Faults {
		if f.Kind != FaultDrain && f.Kind != FaultFail {
			panic(fmt.Sprintf("cluster: unknown fault kind %q", f.Kind))
		}
		if f.Node < 0 || f.Node >= len(cfg.Nodes) {
			panic(fmt.Sprintf("cluster: fault targets node %d of %d", f.Node, len(cfg.Nodes)))
		}
		if f.At < 0 || math.IsNaN(f.At) {
			panic(fmt.Sprintf("cluster: fault at negative time %v", f.At))
		}
		if f.Recover != 0 && (f.Recover <= f.At || math.IsNaN(f.Recover)) {
			panic(fmt.Sprintf("cluster: fault recover %v not after fault time %v", f.Recover, f.At))
		}
	}
	if cfg.Rebalance.MaxMoves < 0 {
		panic(fmt.Sprintf("cluster: negative rebalance move cap %d", cfg.Rebalance.MaxMoves))
	}
}

// uniformSpecs reports whether every node runs identical hardware, in which
// case the compiled fleet stays homogeneous (sharing one analytic simulator,
// exactly like a plain serve run).
func uniformSpecs(nodes []NodeSpec) bool {
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Spec != nodes[0].Spec {
			return false
		}
	}
	return true
}

// migrationPricer builds the serve.MigrationConfig cost function: source
// pages leave through the source node's kvpool.Transfer mover, cross the LAN
// (same region) or WAN (cross-region) link for inter-node moves, and page in
// through the destination's mover. The network leg charges both endpoints —
// the source streams out while the destination streams in.
func migrationPricer(cfg Config, devNode []int) func(src, dst, kvTokens int) (float64, float64) {
	llm := hwsim.Llama3_8B()
	bytesPerToken := cfg.Base.Pol.KVBytesPerToken(llm)
	pageTokens := cfg.Base.KV.PageTokens
	if pageTokens == 0 {
		pageTokens = serve.DefaultPageTokens
	}
	movers := make([]kvpool.Transfer, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		movers[i] = kvpool.Transfer{
			Link: n.Spec.Link, SSD: n.Spec.OffloadSSD, Host: n.Spec.HostMem,
			PageBytes: bytesPerToken * float64(pageTokens),
		}
	}
	lan, wan := memsim.LAN100G(), memsim.WAN()
	return func(src, dst, kvTokens int) (float64, float64) {
		pages := (kvTokens + pageTokens - 1) / pageTokens
		sn, dn := devNode[src], devNode[dst]
		out := movers[sn].PageOut(pages)
		in := movers[dn].PageIn(pages)
		if sn == dn {
			// Intra-node move: device-to-device over the node's own link.
			return out, in
		}
		link := lan
		if cfg.Nodes[sn].Region != cfg.Nodes[dn].Region {
			link = wan
		}
		net := link.TransferTime(float64(kvTokens)*bytesPerToken, pages)
		return out + net, net + in
	}
}

// clusterRun is the controller's mutable state across ticks.
type clusterRun struct {
	cfg    Config
	comp   *compositeBalancer
	scaler Autoscaler

	// downBy tracks who owns each down node (fault beats scaler).
	downBy []int
	// fevents is the compiled fault schedule; fi the application cursor.
	fevents []faultEvent
	fi      int
	// initPending drains Nodes[InitialNodes:] at the first tick.
	initPending bool

	// Windowed SLO accounting, fed by the chained observer: frames bucket by
	// arrival time into controlInterval-wide windows, and tick* accumulate
	// since the autoscaler last looked.
	winServed, winMissed, winDropped    []int
	tickServed, tickMissed, tickDropped int
}

// compileFaults flattens the fault list into a time-sorted event schedule
// (stable at equal times: config order, drains/fails before the recovery of
// a later entry only by timestamp).
func compileFaults(faults []Fault) []faultEvent {
	var evs []faultEvent
	for _, f := range faults {
		kind := fevDrain
		if f.Kind == FaultFail {
			kind = fevFail
		}
		evs = append(evs, faultEvent{at: f.At, kind: kind, node: f.Node})
		if f.Recover > 0 {
			evs = append(evs, faultEvent{at: f.Recover, kind: fevRecover, node: f.Node})
		}
	}
	// Insertion sort keeps equal-time events in config order (stable).
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].at < evs[j-1].at; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	return evs
}

// tickTimes assembles the control tick schedule: every fault and recovery
// time, periodic ticks when the autoscaler or rebalancer runs, and t=0 when
// the autoscaler starts with a partial cluster.
func (r *clusterRun) tickTimes() (interval float64, at []float64) {
	for _, fe := range r.fevents {
		at = append(at, fe.at)
	}
	if r.scaler != nil || r.cfg.Rebalance.MaxMoves > 0 {
		interval = controlInterval
	}
	if r.initPending {
		at = append(at, 0)
	}
	return interval, at
}

// takeNode drains or fails a whole node; by records the owner so only the
// matching plane reactivates it. A fault claims a scaler-drained node.
func (r *clusterRun) takeNode(n, by, kind int, ops *serve.FleetOps) {
	if r.downBy[n] != nodeUp {
		if by == downByFault {
			r.downBy[n] = downByFault
		}
		return
	}
	r.downBy[n] = by
	// Mark the node unroutable before the first device drains, so evacuated
	// sessions never hop to a sibling device that is about to go down too.
	r.comp.avoid[n] = true
	for d := r.comp.lo[n]; d < r.comp.hi[n]; d++ {
		if kind == fevFail {
			ops.Fail(d)
		} else {
			ops.Drain(d)
		}
	}
}

// restoreNode returns a node to service if the given plane owns its outage.
func (r *clusterRun) restoreNode(n, by int, ops *serve.FleetOps) {
	if r.downBy[n] != by {
		return
	}
	r.downBy[n] = nodeUp
	r.comp.avoid[n] = false
	for d := r.comp.lo[n]; d < r.comp.hi[n]; d++ {
		ops.Activate(d)
	}
}

// activeNodes counts nodes currently in service.
func (r *clusterRun) activeNodes() int {
	n := 0
	for _, by := range r.downBy {
		if by == nodeUp {
			n++
		}
	}
	return n
}

// control is the serve.ControlConfig tick body: apply due faults, run the
// autoscaler, then rebalance.
func (r *clusterRun) control(now float64, ops *serve.FleetOps) {
	if r.initPending {
		r.initPending = false
		for n := r.cfg.InitialNodes; n < len(r.cfg.Nodes); n++ {
			r.takeNode(n, downByScaler, fevDrain, ops)
		}
	}
	for r.fi < len(r.fevents) && r.fevents[r.fi].at <= now {
		fe := r.fevents[r.fi]
		r.fi++
		if fe.kind == fevRecover {
			r.restoreNode(fe.node, downByFault, ops)
		} else {
			r.takeNode(fe.node, downByFault, fe.kind, ops)
		}
	}
	if r.scaler != nil {
		r.autoscale(now, ops)
	}
	if r.cfg.Rebalance.MaxMoves > 0 {
		r.rebalance(now, ops)
	}
}

// autoscale evaluates the scaler against the load since the last tick and
// drains / reactivates scaler-owned nodes toward the desired count.
func (r *clusterRun) autoscale(now float64, ops *serve.FleetOps) {
	devs := ops.Devices()
	var backlog float64
	up := 0
	for i := range devs {
		if devs[i].Down {
			continue
		}
		up++
		backlog += ops.Backlog(i)
	}
	if up > 0 {
		backlog /= float64(up)
	}
	arrived := r.tickServed + r.tickDropped
	att := 1.0
	if arrived > 0 {
		att = float64(r.tickServed-r.tickMissed) / float64(arrived)
	}
	r.tickServed, r.tickMissed, r.tickDropped = 0, 0, 0

	active := r.activeNodes()
	desired := r.scaler.Scale(now, View{
		Nodes: len(r.cfg.Nodes), Active: active,
		Backlog: backlog, Attainment: att,
	})
	if desired < 1 {
		desired = 1
	}
	if desired > len(r.cfg.Nodes) {
		desired = len(r.cfg.Nodes)
	}
	for desired > active {
		// Scale out: reactivate the lowest scaler-drained node.
		n := -1
		for i, by := range r.downBy {
			if by == downByScaler {
				n = i
				break
			}
		}
		if n < 0 {
			break
		}
		r.restoreNode(n, downByScaler, ops)
		active++
	}
	for desired < active && active > 1 {
		// Scale in: drain the highest up node (node 0 never scales in).
		n := -1
		for i := len(r.downBy) - 1; i > 0; i-- {
			if r.downBy[i] == nodeUp {
				n = i
				break
			}
		}
		if n < 0 {
			break
		}
		r.takeNode(n, downByScaler, fevDrain, ops)
		active--
	}
}

// rebalance moves sessions from the most-loaded node to the least-loaded one
// (sessions per device) until the imbalance is within slack or the per-tick
// move cap is hit.
func (r *clusterRun) rebalance(_ float64, ops *serve.FleetOps) {
	slack := r.cfg.Rebalance.Slack
	if slack < 1 {
		slack = 1
	}
	devs := ops.Devices()
	for moves := 0; moves < r.cfg.Rebalance.MaxMoves; moves++ {
		// Per-node load over up nodes.
		hiN, loN := -1, -1
		var hiLoad, loLoad float64
		for n := range r.cfg.Nodes {
			if r.downBy[n] != nodeUp {
				continue
			}
			sessions := 0
			for d := r.comp.lo[n]; d < r.comp.hi[n]; d++ {
				sessions += devs[d].ActiveSessions
			}
			load := float64(sessions) / float64(r.comp.hi[n]-r.comp.lo[n])
			if hiN < 0 || load > hiLoad {
				hiN, hiLoad = n, load
			}
			if loN < 0 || load < loLoad {
				loN, loLoad = n, load
			}
		}
		if hiN < 0 || hiN == loN || hiLoad-loLoad <= slack {
			return
		}
		// Busiest device with an occupant on the hot node; its lowest session.
		srcD, srcSessions := -1, -1
		for d := r.comp.lo[hiN]; d < r.comp.hi[hiN]; d++ {
			if devs[d].ActiveSessions > srcSessions {
				if on := ops.SessionsOn(d); len(on) > 0 {
					srcD, srcSessions = d, devs[d].ActiveSessions
				}
			}
		}
		if srcD < 0 {
			return
		}
		s := ops.SessionsOn(srcD)[0]
		// Emptiest device on the cold node.
		dstD := r.comp.lo[loN]
		for d := dstD + 1; d < r.comp.hi[loN]; d++ {
			if devs[d].ActiveSessions < devs[dstD].ActiveSessions {
				dstD = d
			}
		}
		ops.Migrate(s, dstD)
	}
}

// observe chains the windowed SLO accounting in front of the user observer.
func (r *clusterRun) observe(inner serve.Observer) serve.Observer {
	return serve.ObserverFunc(func(ev serve.Event) {
		switch ev.Kind {
		case serve.EventFrameServed, serve.EventDeadlineMissed, serve.EventFrameDropped:
			w := int(ev.Time / controlInterval)
			if w >= len(r.winServed) {
				w = len(r.winServed) - 1
			}
			switch ev.Kind {
			case serve.EventFrameServed:
				r.winServed[w]++
				r.tickServed++
			case serve.EventDeadlineMissed:
				r.winMissed[w]++
				r.tickMissed++
			case serve.EventFrameDropped:
				r.winDropped[w]++
				r.tickDropped++
			default:
				// unreachable: the outer case narrows to these three kinds
			}
		default:
			// every other event kind is outside the SLO window accounting
		}
		if inner != nil {
			inner.Observe(ev)
		}
	})
}

// Run executes the cluster simulation: the topology compiles to one
// serve.Config over the flattened device fleet, with the composite balancer,
// migration pricer and controller wired in, and the fleet result folds back
// into per-node metrics and the windowed SLO series.
func Run(cfg Config) Result {
	validateCluster(cfg)
	for i := range cfg.Nodes {
		if cfg.Nodes[i].Name == "" {
			cfg.Nodes[i].Name = fmt.Sprintf("node%d", i)
		}
	}
	nNodes := len(cfg.Nodes)

	sc := cfg.Base
	sc.Dev = cfg.Nodes[0].Spec
	sc.Devices = 0
	for _, n := range cfg.Nodes {
		sc.Devices += n.Devices
	}
	if !uniformSpecs(cfg.Nodes) {
		sc.DevSpecs = make([]hwsim.DeviceSpec, 0, sc.Devices)
		for _, n := range cfg.Nodes {
			for d := 0; d < n.Devices; d++ {
				sc.DevSpecs = append(sc.DevSpecs, n.Spec)
			}
		}
	} else {
		sc.DevSpecs = nil
	}

	router := cfg.Router
	if router == nil {
		router = &roundRobinRouter{}
	}
	inner := cfg.NodeBalancer
	if inner == nil {
		inner = func() serve.Balancer { return serve.NewRoundRobin() }
	}
	comp := newCompositeBalancer(cfg.Nodes, router, inner, len(sc.Classes))
	sc.Balancer = comp
	sc.Migration = serve.MigrationConfig{Cost: migrationPricer(cfg, comp.devNode)}

	run := &clusterRun{
		cfg: cfg, comp: comp, scaler: cfg.Autoscaler,
		downBy: make([]int, nNodes),
		initPending: cfg.Autoscaler != nil &&
			cfg.InitialNodes > 0 && cfg.InitialNodes < nNodes,
	}
	run.fevents = compileFaults(cfg.Faults)
	nW := int(math.Ceil(sc.Duration / controlInterval))
	if nW < 1 {
		nW = 1
	}
	run.winServed = make([]int, nW)
	run.winMissed = make([]int, nW)
	run.winDropped = make([]int, nW)
	sc.Observer = run.observe(cfg.Base.Observer)

	if run.initPending {
		// Pre-avoid the cold nodes so t=0 arrivals (which sort before the
		// t=0 control tick) already route to the initial set.
		for n := cfg.InitialNodes; n < nNodes; n++ {
			comp.avoid[n] = true
		}
	}
	needControl := len(run.fevents) > 0 || run.scaler != nil ||
		cfg.Rebalance.MaxMoves > 0 || run.initPending
	if needControl {
		interval, at := run.tickTimes()
		sc.Control = serve.ControlConfig{
			Interval: interval, At: at,
			Controller: run.control,
		}
	}

	sres := serve.Run(sc)

	res := Result{Serve: sres, PerNode: make([]NodeMetrics, nNodes)}
	for n := range res.PerNode {
		nm := &res.PerNode[n]
		nm.Name, nm.Region = cfg.Nodes[n].Name, cfg.Nodes[n].Region
		nm.Devices = cfg.Nodes[n].Devices
		for d := comp.lo[n]; d < comp.hi[n]; d++ {
			dm := &sres.PerDevice[d]
			nm.Sessions += dm.Sessions
			nm.FramesServed += dm.FramesServed
			nm.QueriesServed += dm.QueriesServed
			nm.Utilization += dm.Utilization
			nm.MigrationsIn += dm.MigrationsIn
			nm.MigrationsOut += dm.MigrationsOut
			nm.MigrationTime += dm.MigrationTime
			nm.Degradations += dm.Degradations
			nm.Restorations += dm.Restorations
		}
		nm.Utilization /= float64(nm.Devices)
	}
	res.Windows = make([]Window, nW)
	for w := range res.Windows {
		win := &res.Windows[w]
		win.Start = float64(w) * controlInterval
		win.End = win.Start + controlInterval
		if win.End > sc.Duration {
			win.End = sc.Duration
		}
		win.FramesServed = run.winServed[w]
		win.DeadlineMisses = run.winMissed[w]
		win.FramesDropped = run.winDropped[w]
		win.Attained = 1
		if arrived := win.FramesServed + win.FramesDropped; arrived > 0 {
			win.Attained = float64(win.FramesServed-win.DeadlineMisses) / float64(arrived)
		}
	}
	return res
}
