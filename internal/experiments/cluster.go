package experiments

import (
	"fmt"
	"math"

	"vrex/internal/cluster"
	"vrex/internal/hwsim"
	"vrex/internal/report"
	"vrex/internal/serve"
)

// ClusterServing is the geo-distributed study on the cluster plane: fleets
// of V-Rex48 nodes behind a global session router, with live KV migration
// between devices and nodes priced through the kvpool transfer mover and the
// LAN/WAN link models. Three tables:
//
//   - nodes x router sweep under open-loop churn (full mode pushes past 10^4
//     sessions per run): cluster goodput, SLO attainment and rebalancing
//     migration overhead per routing policy;
//   - node drain + recovery with the evacuated KV crossing the LAN vs the
//     WAN: migration volume, time, and the SLO dip around the outage;
//   - autoscaler comparison from a one-warm-node cold start: how much of the
//     statically-provisioned cluster's goodput each scaler recovers, and the
//     migration churn it pays.
func ClusterServing(opts Options) []*report.Table {
	duration := 30.0
	devs := 16 // devices per node
	life := 10.0
	// Per-table arrival rates (sessions/s): the sweep runs hot so routing
	// quality shows, the drain study light enough that the survivor can absorb
	// the evacuees (the dip comes from migration cost, and recovery is
	// visible), the autoscaler study sized to overload its single warm node.
	// Full mode pushes past 10^4 sessions per sweep run.
	sweepRate, drainRate, autoRate := 400.0, 50.0, 120.0
	if opts.Quick {
		duration, devs, life = 8, 2, 4
		sweepRate, drainRate, autoRate = 30, 15, 60
	}

	classes, err := serve.ParseMix("2fps:0.7,4fps:0.3")
	if err != nil {
		panic(fmt.Sprintf("experiments: cluster mix: %v", err))
	}
	for i := range classes {
		classes[i].Priority = i
		// Query-free mid-depth sessions (12K KV, ~40 streams per device): deep
		// enough that placement quality matters and every migration moves real
		// KV, shallow enough that a migrated session's transfer stall is a
		// dip rather than a collapse.
		classes[i].Stream.QueryEvery = 0
		classes[i].Stream.StartKV = 12000
		classes[i].SLO = 0.7
	}
	mkBase := func(rate float64) serve.Config {
		sched, err := serve.ParseScheduler("edf")
		if err != nil {
			panic(fmt.Sprintf("experiments: cluster scheduler: %v", err))
		}
		cs := make([]serve.StreamClass, len(classes))
		copy(cs, classes)
		return serve.Config{
			Pol:     hwsim.ReSVModel(),
			Streams: 4, Duration: duration, Classes: cs,
			Churn:         serve.ChurnConfig{ArrivalRate: rate, MeanLifetime: life},
			DropThreshold: 4, Seed: opts.Seed, Workers: opts.Parallel,
			Scheduler: serve.SchedulerConfig{Policy: sched, BatchMax: 8, SLO: 0.7},
		}
	}
	nodeList := func(n int) []cluster.NodeSpec {
		nodes := make([]cluster.NodeSpec, n)
		for i := range nodes {
			nodes[i] = cluster.NodeSpec{Spec: hwsim.VRex48(), Devices: devs, Region: "us"}
		}
		return nodes
	}
	mustRouter := func(name string) cluster.Router {
		r, err := cluster.ParseRouter(name)
		if err != nil {
			panic(fmt.Sprintf("experiments: cluster router %q: %v", name, err))
		}
		return r
	}

	// Sweep: cluster size x routing policy, rebalancer on so routing quality
	// shows up both in goodput and in how much corrective migration it costs.
	fleets := []int{2, 4, 8}
	if opts.Quick {
		fleets = []int{1, 2, 4}
	}
	sweep := report.NewTable(
		fmt.Sprintf("Cluster: nodes x router, %d-device V-Rex48 nodes, churn %.3g/s, rebalancing on", devs, sweepRate),
		"nodes", "router", "sessions", "served", "goodput_fps", "slo_pct",
		"dropped_pct", "migrations", "mig_ms", "util_pct")
	for _, n := range fleets {
		for _, rname := range cluster.RouterNames() {
			res := cluster.Run(cluster.Config{
				Nodes: nodeList(n), Base: mkBase(sweepRate), Router: mustRouter(rname),
				Rebalance: cluster.RebalanceConfig{MaxMoves: 4, Slack: 1},
			})
			agg := res.Serve.Aggregate
			mig := res.Serve.Migrations
			sweep.AddRow(n, rname, agg.Sessions, agg.FramesServed, agg.Goodput,
				100*agg.SLOAttained, 100*agg.DropRate, mig.Live+mig.Lossy,
				1000*mig.Time, 100*res.Serve.Utilization)
		}
	}

	// Drain + recovery: node 1 leaves at 40% of the run and returns at 70%;
	// its sessions live-migrate out and the rebalancer refills it afterwards.
	// The same topology runs with both nodes in one region (LAN) and split
	// across regions (WAN) — the only difference is the link the KV crosses.
	faultAt := math.Floor(0.4 * duration)
	recoverAt := math.Floor(0.7 * duration)
	drain := report.NewTable(
		fmt.Sprintf("Cluster: node drain at t=%g, recovery at t=%g — live KV migration over LAN vs WAN", faultAt, recoverAt),
		"net", "live_migrations", "kv_tokens_moved", "migration_ms",
		"pre_slo_pct", "dip_slo_pct", "post_slo_pct")
	for _, net := range []struct{ name, region2 string }{{"lan", "us"}, {"wan", "eu"}} {
		nodes := nodeList(2)
		nodes[1].Region = net.region2
		res := cluster.Run(cluster.Config{
			Nodes: nodes, Base: mkBase(drainRate), Router: mustRouter("least-loaded"),
			Faults: []cluster.Fault{{
				Kind: cluster.FaultDrain, Node: 1, At: faultAt, Recover: recoverAt,
			}},
			Rebalance: cluster.RebalanceConfig{MaxMoves: 4, Slack: 1},
		})
		mig := res.Serve.Migrations
		pre := res.Windows[int(faultAt)-1].Attained
		dip := 1.0
		for i := int(faultAt); i < len(res.Windows) && i <= int(recoverAt)+1; i++ {
			dip = math.Min(dip, res.Windows[i].Attained)
		}
		post := res.Windows[len(res.Windows)-1].Attained
		drain.AddRow(net.name, mig.Live, mig.Tokens, 1000*mig.Time,
			100*pre, 100*dip, 100*post)
	}

	// Autoscaler: a 4-node cluster starting with one warm node; scalers grow
	// it back under load, and the rebalancer moves sessions onto reactivated
	// nodes. "none" is the statically-provisioned (all-warm) reference.
	autoTab := report.NewTable(
		"Cluster: autoscaler from a 1-warm-node cold start, 4 nodes",
		"autoscaler", "nodes_used", "sessions", "served", "goodput_fps",
		"slo_pct", "migrations")
	for _, spec := range []string{"none", "queue(hi=0.02,lo=0.005)", "slo(target=0.95,lo=0.01)"} {
		scaler, err := cluster.ParseAutoscaler(spec)
		if err != nil {
			panic(fmt.Sprintf("experiments: cluster autoscaler %q: %v", spec, err))
		}
		initial := 0
		if scaler != nil {
			initial = 1
		}
		res := cluster.Run(cluster.Config{
			Nodes: nodeList(4), Base: mkBase(autoRate), Router: mustRouter("least-loaded"),
			Autoscaler: scaler, InitialNodes: initial,
			Rebalance: cluster.RebalanceConfig{MaxMoves: 8, Slack: 1},
		})
		used := 0
		for _, nm := range res.PerNode {
			if nm.FramesServed > 0 {
				used++
			}
		}
		agg := res.Serve.Aggregate
		mig := res.Serve.Migrations
		autoTab.AddRow(spec, used, agg.Sessions, agg.FramesServed, agg.Goodput,
			100*agg.SLOAttained, mig.Live+mig.Lossy)
	}
	return []*report.Table{sweep, drain, autoTab}
}
