// Command vrex-sim runs the standalone hardware simulator — either a
// single-device workload-point study or, in serving mode, a multi-device
// serving simulation over a heterogeneous stream mix.
//
// Point mode (default):
//
//	vrex-sim -device vrex8 -policy resv -kv 40000 -batch 1 -tokens 10
//	vrex-sim -device agx -policy flexgen -kv 20000 -tpot
//	vrex-sim -policy 'rekv(frame=0.58,text=0.31)' -kv 40000
//	vrex-sim -kv 10000,20000,40000,80000 -parallel 4   # sweep, ordered output
//
// Serving mode (enabled by -scenario, or by any of -mix, -devices,
// -balancer, -streams, -duration, -drop, -churn-arrivals, -churn-life,
// -seed, -kv-capacity, -spill, -page-tokens, -scheduler, -batch-max,
// -slo-ms, -degrade, or the cluster flags below):
//
//	vrex-sim -policy 'rekv(frame=0.58,text=0.31)' -devices 4 \
//	    -balancer least-loaded -mix '2fps:0.7,4fps:0.3'
//	vrex-sim -devices 2 -mix 2fps -streams 8 -churn-arrivals 0.5 -churn-life 30
//	vrex-sim -mix longctx -streams 10 -scheduler edf -batch-max 8 -slo-ms 600
//	vrex-sim -scenario scenarios/flash-crowd.vrex
//	vrex-sim -scenario-lint scenarios
//
// Cluster mode (enabled by -nodes, which replaces -devices): the fleet
// becomes a geo-distributed cluster of nodes (internal/cluster), each node a
// fleet of identical devices, with a global session router, optional
// autoscaler, node fault injection and live KV session migration priced over
// the LAN / WAN link models:
//
//	vrex-sim -nodes 'vrex8:2@us,vrex8:2@eu' -router least-loaded \
//	    -churn-arrivals 2 -churn-life 10
//	vrex-sim -nodes 'vrex48:4,vrex48:4' -scheduler edf \
//	    -fault 'drain(node=1,at=8,recover=14)' -rebalance-moves 4
//	vrex-sim -nodes 'vrex8:2,vrex8:2,vrex8:2' -autoscale 'queue(hi=0.05,lo=0.01)' \
//	    -initial-nodes 1 -churn-arrivals 4 -churn-life 8
//
// The serving flags are sugar over the declarative scenario layer
// (internal/scenario): they synthesize an in-memory .vrex scenario that is
// then compiled into the engine configuration, so a flag-built run and a
// file-built run go through the same code path. -scenario-dump prints the
// synthesized (or loaded) scenario in canonical .vrex form — feed it back
// via -scenario and the run is identical. Scenario files additionally
// describe time-varying load the flags cannot: diurnal rate cycles, flash
// crowds, Pareto/lognormal lifetimes, correlated per-class bursts, and
// trace replay (see scenarios/ for the committed suite). -record-trace
// writes the run's arrival pattern back out as a replayable trace scenario,
// and -scenario-lint checks a file or directory against the format.
//
// -kv-capacity enables the KV memory-pressure plane (internal/kvpool): each
// device gets a paged KV budget of that many gigabytes ("auto" derives the
// budget from the device spec, 0 disables the plane), -page-tokens sets the
// page size and -spill the spill/eviction policy ("none", or
// "spill(evict=lru,pages=16)" with evict drawn from the kvpool eviction
// registry).
//
// -scheduler names the continuous-batching policy: ready frames from
// co-resident sessions coalesce into one hardware step (up to -batch-max)
// under the named policy — fifo, edf (earliest deadline first) or priority
// (classes rank by their position in -mix). -slo-ms sets the default
// per-frame deadline backing the edf ordering and the SLO attainment /
// goodput / queue-wait metrics; "none" (the default) serves one item per
// step in arrival order, batch-1 fifo.
//
// -degrade arms the degradation plane (internal/degrade): the named
// controller — static, pressure, deadline or hybrid — watches each
// session's KV free-page headroom and deadline slack and sheds its ReSV
// retrieval budget in bounded steps when the device is pressured, restoring
// with hysteresis once pressure clears. Degraded steps run cheaper on the
// hardware plane and are charged against the accuracy proxy, reported per
// class alongside the SLO metrics.
//
// The observability flags attach the telemetry plane (internal/telemetry) to
// any serving or cluster run without touching the simulation itself:
// -trace-out writes the run as Chrome trace-event JSON — load it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing to see per-device lanes of
// batches, paging stalls and migration legs over per-session lifecycle lanes;
// -metrics-out writes event counters, fixed-bucket latency histograms and
// stall/gauge series in Prometheus text exposition format; -profile prints a
// simulated-time profile attributing every charged device-second to a phase
// (attention, linear, vision, prediction, retrieval fetch, KV paging,
// migration). All three are deterministic: byte-identical output for any
// -parallel value.
//
// Policies come from the hwsim registry and accept parameter overrides in
// the spec string; -list-policies prints every registered policy, balancer,
// scheduler, stream class, and spill/eviction policy name. -kv accepts a
// comma-separated list; the points are simulated across -parallel workers
// (default GOMAXPROCS, 1 = sequential) and printed in argument order, so the
// output is identical for any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"vrex/internal/cluster"
	"vrex/internal/degrade"
	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
	"vrex/internal/parallel"
	"vrex/internal/report"
	"vrex/internal/scenario"
	"vrex/internal/serve"
	"vrex/internal/telemetry"
)

// parseKVList parses the -kv flag: one length or a comma-separated sweep.
func parseKVList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad KV length %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// renderPoint simulates one workload point and renders its report.
func renderPoint(dev hwsim.DeviceSpec, pol hwsim.PolicyModel, kv, batch, tokens int, tpot bool) string {
	sim := hwsim.NewSim(dev, hwsim.Llama3_8B(), pol)
	var b hwsim.Breakdown
	if tpot {
		b = sim.TPOT(kv, batch)
	} else {
		b = sim.FrameLatency(tokens, kv, batch)
	}
	if b.OOM {
		return fmt.Sprintf("%s + %s @ kv=%d batch=%d: OUT OF MEMORY\n", dev.Name, pol.Name, kv, batch)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s + %s @ kv=%d batch=%d\n", dev.Name, pol.Name, kv, batch)
	fmt.Fprintf(&sb, "  total latency    : %8.2f ms (%.2f FPS)\n", b.Total*1000, b.FPS())
	fmt.Fprintf(&sb, "  vision + host    : %8.2f ms\n", b.VisionTime*1000)
	fmt.Fprintf(&sb, "  linear (QKVO+FFN): %8.2f ms\n", b.LinearTime*1000)
	fmt.Fprintf(&sb, "  attention        : %8.2f ms\n", b.AttnTime*1000)
	fmt.Fprintf(&sb, "  KV prediction    : %8.2f ms exposed (%.2f ms busy)\n", b.PredExposed*1000, b.PredRaw*1000)
	fmt.Fprintf(&sb, "  KV fetch         : %8.2f ms exposed (%.2f ms busy, %.1f MB)\n",
		b.FetchExposed*1000, b.FetchRaw*1000, b.FetchBytes/1e6)
	fmt.Fprintf(&sb, "  DRE busy         : %8.3f ms\n", b.DRETime*1000)
	fmt.Fprintf(&sb, "  energy           : %8.2f J (%.1f GOPS/W)\n", b.EnergyJ, b.GOPSPerWatt())
	return sb.String()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func listPolicies() {
	fmt.Println("policies (hwsim registry; parameters: frame, text, segment, cluster, reuse, quantbits):")
	for _, n := range hwsim.PolicyModelNames() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("balancers (-balancer):")
	for _, n := range serve.BalancerNames() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("schedulers (-scheduler; 'none' is batch-1 fifo):")
	for _, n := range serve.SchedulerNames() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("degraders (-degrade; e.g. 'pressure(lo=0.1,hi=0.3)'; 'none' disables the degradation plane):")
	fmt.Println("  none")
	for _, n := range degrade.Names() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("stream classes (-mix class:weight,...):")
	for _, n := range serve.ClassNames() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("cluster routers (-router; needs -nodes):")
	for _, n := range cluster.RouterNames() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("cluster autoscalers (-autoscale; e.g. 'queue(hi=0.05,lo=0.01)'; 'none' disables):")
	for _, n := range cluster.AutoscalerNames() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("spill policies (-spill; e.g. 'spill(evict=lru,pages=16)'):")
	for _, n := range kvpool.SpillNames() {
		fmt.Printf("  %s\n", n)
	}
	fmt.Println("eviction policies (kvpool registry; -spill evict= parameter):")
	for _, n := range kvpool.EvictionNames() {
		fmt.Printf("  %s\n", n)
	}
}

// lintScenarios parses, validates, compiles and round-trips one .vrex file
// or every .vrex file in a directory; any failure exits non-zero.
func lintScenarios(path string) {
	info, err := os.Stat(path)
	if err != nil {
		fail("%v", err)
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.vrex"))
		if err != nil || len(files) == 0 {
			fail("no .vrex files in %s", path)
		}
		sort.Strings(files)
	}
	ok := true
	complain := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		ok = false
	}
	for _, f := range files {
		s, err := scenario.ParseFile(f)
		if err != nil {
			complain(err)
			continue
		}
		if s.IsCluster() {
			if _, err := s.ClusterConfig(); err != nil {
				complain(fmt.Errorf("%s: does not compile: %v", f, err))
				continue
			}
		} else if _, err := s.Config(); err != nil {
			complain(fmt.Errorf("%s: does not compile: %v", f, err))
			continue
		}
		s2, err := scenario.Parse(f+" (canonical form)", s.Marshal())
		if err != nil {
			complain(fmt.Errorf("%s: canonical form rejected: %v", f, err))
			continue
		}
		if !reflect.DeepEqual(s, s2) {
			complain(fmt.Errorf("%s: canonical round trip changed the scenario", f))
			continue
		}
		kind := fmt.Sprintf("%d classes, %d trace events", len(s.Classes), len(s.Trace))
		if s.IsCluster() {
			kind += fmt.Sprintf(", cluster %s, %d faults", s.Nodes, len(s.Faults))
		}
		fmt.Printf("ok %s (scenario %s: arrivals %s, lifetime %s, %s)\n",
			f, s.Name, s.Arrival.Kind, s.Lifetime.Kind, kind)
	}
	if !ok {
		os.Exit(1)
	}
}

func verdict(res serve.Result) string {
	if !res.RealTime {
		return "NOT real-time"
	}
	return "real-time"
}

// printFleetSummary renders the parts single-fleet and cluster serving runs
// share: the KV pool and scheduler summary lines and the per-class table.
func printFleetSummary(cfg serve.Config, res serve.Result) {
	if mem := res.Memory; mem.CapacityPages > 0 {
		fmt.Printf("kv pool: %d pages x %d tokens per device, spill %s | pages in/out %d/%d (%.1f/%.1f ms) | queued %d, rejected %d\n",
			mem.CapacityPages, mem.PageTokens, cfg.KV.Spill.Name(),
			mem.PagesIn, mem.PagesOut, 1000*mem.PageInTime, 1000*mem.PageOutTime,
			mem.SessionsQueued, mem.SessionsRejected)
	}
	sched, bm := cfg.Scheduler.Effective()
	steps := 0
	for _, dm := range res.PerDevice {
		steps += dm.Batches
	}
	fmt.Printf("scheduler: %s, batch cap %d | %d hardware steps | SLO attainment %.1f%%, goodput %.2f fps, deadline misses %d\n",
		sched.Name(), bm, steps, 100*res.Aggregate.SLOAttained,
		res.Aggregate.Goodput, res.Aggregate.DeadlineMisses)
	deg := cfg.Degrade.Policy
	if deg != nil {
		fmt.Printf("degrade: %s | %d degradations, %d restorations | mean budget %.3f, accuracy proxy %.3f\n",
			deg.Name(), res.Aggregate.Degradations, res.Aggregate.Restorations,
			res.Aggregate.MeanBudget, res.Aggregate.AccuracyProxy)
	}
	fmt.Println()

	classHeaders := []string{"class", "sessions", "arrived", "served", "dropped", "queries", "fps_per_stream", "p50_ms", "p99_ms", "realtime_sessions",
		"slo_pct", "goodput_fps", "queue_p99_ms"}
	if deg != nil {
		classHeaders = append(classHeaders, "mean_budget", "acc_proxy", "degradations", "restorations")
	}
	classTab := report.NewTable("serving: per-class metrics", classHeaders...)
	for _, cm := range append(res.PerClass, res.Aggregate) {
		row := []any{cm.Class, cm.Sessions, cm.FramesArrived, cm.FramesServed,
			cm.FramesDropped, cm.QueriesServed, cm.MeanFPS, 1000 * cm.P50, 1000 * cm.P99, cm.RealTimeSessions,
			100 * cm.SLOAttained, cm.Goodput, 1000 * cm.QueueP99}
		if deg != nil {
			row = append(row, cm.MeanBudget, cm.AccuracyProxy, cm.Degradations, cm.Restorations)
		}
		classTab.AddRow(row...)
	}
	classTab.Render(os.Stdout)
	fmt.Println()
}

// runCluster executes a cluster scenario and renders the topology header,
// migration traffic, the fleet-wide per-class metrics, per-node metrics and —
// when faults or an autoscaler shaped the run — the SLO attainment windows.
func runCluster(sc *scenario.Scenario, cfg cluster.Config) {
	res := cluster.Run(cfg)
	scaler := "none"
	if cfg.Autoscaler != nil {
		scaler = cfg.Autoscaler.Name()
	}
	fmt.Printf("cluster %s | router %s, autoscaler %s, node balancer %s | %d sessions over %gs | %s, cluster utilization %.0f%%\n",
		sc.Nodes, cfg.Router.Name(), scaler, sc.Balancer,
		len(res.Serve.PerStream), sc.Duration, verdict(res.Serve), 100*res.Serve.Utilization)
	mig := res.Serve.Migrations
	fmt.Printf("migrations: %d live, %d lossy | %d KV tokens moved | %.1f ms on device timelines | %d fault(s) injected\n",
		mig.Live, mig.Lossy, mig.Tokens, 1000*mig.Time, len(cfg.Faults))
	printFleetSummary(cfg.Base, res.Serve)

	nodeTab := report.NewTable("cluster: per-node metrics",
		"node", "region", "devices", "sessions", "frames", "queries", "util_pct",
		"mig_in", "mig_out", "mig_ms")
	for _, nm := range res.PerNode {
		region := nm.Region
		if region == "" {
			region = "-"
		}
		nodeTab.AddRow(nm.Name, region, nm.Devices, nm.Sessions, nm.FramesServed,
			nm.QueriesServed, 100*nm.Utilization, nm.MigrationsIn, nm.MigrationsOut,
			1000*nm.MigrationTime)
	}
	nodeTab.Render(os.Stdout)

	if len(cfg.Faults) > 0 || cfg.Autoscaler != nil {
		winTab := report.NewTable("cluster: SLO attainment windows",
			"t_start", "t_end", "served", "missed", "dropped", "attained_pct")
		for _, w := range res.Windows {
			winTab.AddRow(w.Start, w.End, w.FramesServed, w.DeadlineMisses,
				w.FramesDropped, 100*w.Attained)
		}
		fmt.Println()
		winTab.Render(os.Stdout)
	}
}

// telemetryOut bundles the -trace-out / -metrics-out / -profile wiring: a
// collector attached to the run's config, and the exports emitted afterwards.
// The zero configuration (no flag set) attaches nothing, keeping the engine's
// telemetry-disabled fast path.
type telemetryOut struct {
	traceOut, metricsOut string
	profile              bool
	col                  *telemetry.Collector
	prof                 *serve.PhaseProfile
}

func newTelemetryOut(traceOut, metricsOut string, profile bool) *telemetryOut {
	return &telemetryOut{traceOut: traceOut, metricsOut: metricsOut, profile: profile}
}

func (t *telemetryOut) enabled() bool {
	return t.traceOut != "" || t.metricsOut != "" || t.profile
}

// attach wires a collector and profile into the serving config (a no-op when
// no telemetry flag was set).
func (t *telemetryOut) attach(cfg *serve.Config) {
	if !t.enabled() {
		return
	}
	t.col = telemetry.NewCollector()
	t.prof = t.col.Attach(cfg)
}

// emit writes the requested exports after the run.
func (t *telemetryOut) emit(duration float64) {
	if t.col == nil {
		return
	}
	if t.traceOut != "" {
		f, err := os.Create(t.traceOut)
		if err != nil {
			fail("-trace-out: %v", err)
		}
		if err := t.col.WriteTrace(f); err != nil {
			fail("-trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("-trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace for %d events to %s (load in Perfetto or chrome://tracing)\n",
			len(t.col.Events()), t.traceOut)
	}
	if t.metricsOut != "" {
		f, err := os.Create(t.metricsOut)
		if err != nil {
			fail("-metrics-out: %v", err)
		}
		t.col.Metrics(1, duration).WritePrometheus(f)
		if err := f.Close(); err != nil {
			fail("-metrics-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote Prometheus metrics to %s\n", t.metricsOut)
	}
	if t.profile {
		fmt.Println()
		telemetry.AttributionTable(t.prof).Render(os.Stdout)
	}
}

func main() {
	device := flag.String("device", "vrex8", "agx | a100 | vrex8 | vrex48")
	policy := flag.String("policy", "resv", "policy spec, e.g. resv or 'rekv(frame=0.58,text=0.31)' (see -list-policies)")
	kv := flag.String("kv", "40000", "KV cache sequence length, or comma-separated sweep (point mode)")
	batch := flag.Int("batch", 1, "batch size (point mode)")
	tokens := flag.Int("tokens", 10, "new tokens per frame (point mode)")
	tpot := flag.Bool("tpot", false, "simulate one generated token instead of a frame (point mode)")
	par := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count (1 = sequential)")
	mix := flag.String("mix", "2fps", "serving: weighted stream mix, e.g. '2fps:0.7,4fps:0.3'")
	devices := flag.Int("devices", 1, "serving: fleet size")
	balancer := flag.String("balancer", "round-robin", "serving: session balancer (see -list-policies)")
	streams := flag.Int("streams", 8, "serving: sessions active at t=0")
	duration := flag.Float64("duration", 20, "serving: simulated seconds")
	drop := flag.Float64("drop", 4, "serving: drop frames queued longer than this many frame intervals (0 disables)")
	churnArrivals := flag.Float64("churn-arrivals", 0, "serving: mean session arrivals per second (0 disables churn)")
	churnLife := flag.Float64("churn-life", 0, "serving: mean session lifetime seconds (0 = whole run)")
	seed := flag.Uint64("seed", 1, "serving: arrival jitter seed")
	kvCapacity := flag.String("kv-capacity", "0", "serving: per-device KV budget in GB, or 'auto' (0 disables the memory-pressure plane)")
	spill := flag.String("spill", "none", "serving: spill policy, e.g. 'spill(evict=lru,pages=16)' (see -list-policies)")
	pageTokens := flag.Int("page-tokens", 0, "serving: KV page size in tokens (0 = default 256)")
	scheduler := flag.String("scheduler", "none", "serving: continuous-batching scheduler (fifo | edf | priority; 'none' is batch-1 fifo)")
	batchMax := flag.Int("batch-max", 0, "serving: max frames coalesced per hardware step (0 = default 8; needs -scheduler)")
	sloMS := flag.Float64("slo-ms", 0, "serving: default per-frame deadline in milliseconds (0 = one frame interval; needs -scheduler)")
	degradeSpec := flag.String("degrade", "none", "serving: degradation controller, e.g. 'pressure(lo=0.1,hi=0.3)' or 'hybrid' ('none' disables; see -list-policies)")
	nodes := flag.String("nodes", "", "cluster: node list 'spec[:devices][@region],...' e.g. 'vrex8:2@us,vrex48:4@eu' (enables the cluster plane; replaces -devices)")
	router := flag.String("router", "", "cluster: global session router (empty = round-robin; see -list-policies; needs -nodes)")
	autoscale := flag.String("autoscale", "", "cluster: node autoscaler, e.g. 'queue(hi=0.05,lo=0.01)' or 'slo(target=0.95)' ('none'/empty disables; needs -nodes)")
	initialNodes := flag.Int("initial-nodes", 0, "cluster: nodes in service at t=0 (0 = all; the rest start drained, available for scale-out; needs -autoscale)")
	rebalanceMoves := flag.Int("rebalance-moves", 0, "cluster: max live session migrations per controller tick (0 disables rebalancing; needs -nodes)")
	rebalanceSlack := flag.Float64("rebalance-slack", 0, "cluster: sessions-per-device imbalance tolerated before rebalancing (needs -rebalance-moves)")
	fault := flag.String("fault", "", "cluster: fault list 'drain(node=1,at=8,recover=14); fail(node=0,at=10)' (needs -nodes)")
	scenarioFile := flag.String("scenario", "", "serving: run a .vrex scenario file (replaces the serving flags)")
	scenarioDump := flag.Bool("scenario-dump", false, "print the scenario (loaded, or synthesized from the serving flags) in canonical .vrex form, then exit")
	scenarioLint := flag.String("scenario-lint", "", "lint a .vrex file or a directory of them, then exit")
	recordTrace := flag.String("record-trace", "", "serving: after the run, write its arrival pattern as a replayable trace scenario to this .vrex file")
	traceOut := flag.String("trace-out", "", "serving: write the run as Chrome trace-event JSON to this file (load in Perfetto / chrome://tracing)")
	metricsOut := flag.String("metrics-out", "", "serving: write run metrics in Prometheus text exposition format to this file")
	profileRun := flag.Bool("profile", false, "serving: print the simulated-time phase attribution profile after the run")
	list := flag.Bool("list-policies", false, "list registered policies, balancers and stream classes, then exit")
	flag.Parse()

	if *list {
		listPolicies()
		return
	}
	if args := flag.Args(); len(args) > 0 {
		fail("unexpected arguments %q: vrex-sim takes only flags", args)
	}
	if *scenarioLint != "" {
		lintScenarios(*scenarioLint)
		return
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	servingFlags := []string{"mix", "devices", "balancer", "streams", "duration", "drop",
		"churn-arrivals", "churn-life", "seed", "kv-capacity", "spill", "page-tokens",
		"scheduler", "batch-max", "slo-ms", "degrade",
		"nodes", "router", "autoscale", "initial-nodes", "rebalance-moves", "rebalance-slack", "fault"}
	pointFlags := []string{"kv", "batch", "tokens", "tpot"}
	// The telemetry flags, like -record-trace, imply serving mode but still
	// compose with -scenario (they attach observers, they don't shape the run).
	serving := *scenarioFile != "" || *recordTrace != "" ||
		*traceOut != "" || *metricsOut != "" || *profileRun
	for _, f := range servingFlags {
		if set[f] {
			serving = true
		}
	}
	if serving || *scenarioDump {
		for _, f := range pointFlags {
			if set[f] {
				fail("-%s applies to point mode, but serving flags (-mix/-devices/-scenario/...) were given;\ndrop -%s, or remove the serving flags to run a workload point", f, f)
			}
		}
	}

	// Build the scenario: from the file, or synthesized from the flags (the
	// flags are sugar — both routes compile through scenario.Config, so
	// -scenario-dump output fed back via -scenario reproduces the flag run).
	var sc *scenario.Scenario
	if *scenarioFile != "" {
		for _, f := range servingFlags {
			if set[f] {
				fail("-scenario replaces the serving flags, but -%s was also given;\nedit the scenario file (or dump the flag equivalent with -scenario-dump) instead", f)
			}
		}
		var err error
		sc, err = scenario.ParseFile(*scenarioFile)
		if err != nil {
			fail("%v", err)
		}
	} else {
		if *churnArrivals < 0 || *churnLife < 0 {
			fail("-churn-arrivals and -churn-life must be non-negative")
		}
		classes, err := serve.ParseMix(*mix)
		if err != nil {
			fail("%v\nrun 'vrex-sim -list-policies' for stream class names", err)
		}
		sc = scenario.Default()
		sc.Duration = *duration
		sc.Seed = *seed
		sc.Streams = *streams
		sc.Devices = *devices
		sc.Device = strings.ToLower(*device)
		sc.Policy = *policy
		sc.Balancer = *balancer
		sc.Scheduler = *scheduler
		sc.BatchMax = *batchMax
		sc.SLOms = *sloMS
		// Mirror the parser's canonicalization: "none" is the zero value,
		// so -scenario-dump output stays a Marshal fixed point.
		sc.Degrade = strings.ToLower(strings.TrimSpace(*degradeSpec))
		if sc.Degrade == "none" {
			sc.Degrade = ""
		}
		sc.Drop = *drop
		sc.KVCapacity = strings.ToLower(strings.TrimSpace(*kvCapacity))
		sc.Spill = *spill
		sc.PageTokens = *pageTokens
		if *nodes != "" {
			ns, err := cluster.ParseNodes(*nodes)
			if err != nil {
				fail("%v\n-nodes takes 'spec[:devices][@region],...', e.g. 'vrex8:2@us,vrex48:4@eu'", err)
			}
			sc.Nodes = cluster.FormatNodes(ns)
		}
		sc.Router = strings.ToLower(strings.TrimSpace(*router))
		sc.Autoscale = strings.ToLower(strings.TrimSpace(*autoscale))
		sc.InitialNodes = *initialNodes
		sc.RebalanceMoves = *rebalanceMoves
		sc.RebalanceSlack = *rebalanceSlack
		if *fault != "" {
			sc.Faults, err = cluster.ParseFaults(*fault)
			if err != nil {
				fail("%v\n-fault takes 'drain(node=,at=[,recover=])' or 'fail(...)', ';'-separated", err)
			}
		}
		if *churnArrivals > 0 {
			sc.Arrival = scenario.ArrivalSpec{Kind: "poisson", Rate: *churnArrivals}
		}
		if *churnLife > 0 {
			sc.Lifetime = scenario.LifetimeSpec{Kind: "exp", Mean: *churnLife}
		}
		// The priority scheduler ranks classes by their position in the
		// -mix spec (ClassSpec priority -1 = mix order): list the most
		// latency-critical class first.
		sc.Classes = make([]scenario.ClassSpec, len(classes))
		for i, c := range classes {
			sc.Classes[i] = scenario.ClassSpec{Name: c.Name, Weight: c.Weight, Priority: -1}
		}
	}

	if *scenarioDump {
		os.Stdout.Write(sc.Marshal())
		return
	}

	if !serving {
		dev, ok := hwsim.DeviceByName(*device)
		if !ok {
			fail("unknown device %q (known: %s)", *device, strings.Join(hwsim.DeviceNames(), ", "))
		}
		pol, err := hwsim.ParsePolicy(*policy)
		if err != nil {
			fail("%v\nrun 'vrex-sim -list-policies' for registered policies", err)
		}
		kvs, err := parseKVList(*kv)
		if err != nil {
			fail("%v\n-kv takes one KV length or a comma-separated sweep, e.g. -kv 10000,20000", err)
		}
		reports := parallel.Map(*par, len(kvs), func(i int) string {
			return renderPoint(dev, pol, kvs[i], *batch, *tokens, *tpot)
		})
		for _, r := range reports {
			fmt.Print(r)
		}
		return
	}

	tele := newTelemetryOut(*traceOut, *metricsOut, *profileRun)

	if sc.IsCluster() {
		if *recordTrace != "" {
			fail("-record-trace is not supported for cluster scenarios")
		}
		ccfg, err := sc.ClusterConfig()
		if err != nil {
			fail("%v\nrun 'vrex-sim -list-policies' for registered router and autoscaler names", err)
		}
		ccfg.Base.Workers = *par
		tele.attach(&ccfg.Base)
		runCluster(sc, ccfg)
		tele.emit(sc.Duration)
		return
	}

	cfg, err := sc.Config()
	if err != nil {
		fail("%v\nrun 'vrex-sim -list-policies' for registered policy, balancer and class names", err)
	}
	cfg.Workers = *par
	var rec *scenario.Recorder
	if *recordTrace != "" {
		rec = scenario.NewRecorder()
		cfg.Observer = rec
	}
	tele.attach(&cfg)
	res := serve.Run(cfg)
	if rec != nil {
		replay := rec.Scenario(sc)
		if err := replay.Validate(); err != nil {
			fail("-record-trace: recorded scenario invalid: %v", err)
		}
		if err := os.WriteFile(*recordTrace, replay.Marshal(), 0o644); err != nil {
			fail("-record-trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d sessions to %s (replay with -scenario)\n", len(replay.Trace), *recordTrace)
	}

	fmt.Printf("%s + %s | %d device(s), %s balancer | %d sessions over %gs | %s, fleet utilization %.0f%%\n",
		cfg.Dev.Name, cfg.Pol.Name, sc.Devices, cfg.Balancer.Name(), len(res.PerStream), sc.Duration, verdict(res), 100*res.Utilization)
	printFleetSummary(cfg, res)

	headers := []string{"device", "sessions", "frames", "queries", "util_pct", "peak_kv", "batches", "qwait_ms"}
	if res.Memory.CapacityPages > 0 {
		headers = append(headers, "pages_in", "pages_out", "pagein_ms", "pageout_ms", "queued", "rejected")
	}
	degOn := cfg.Degrade.Policy != nil
	if degOn {
		headers = append(headers, "degradations", "restorations")
	}
	devTab := report.NewTable("serving: per-device metrics", headers...)
	for d, dm := range res.PerDevice {
		row := []any{d, dm.Sessions, dm.FramesServed, dm.QueriesServed, 100 * dm.Utilization, dm.PeakResidentKV,
			dm.Batches, 1000 * dm.MeanQueueWait}
		if res.Memory.CapacityPages > 0 {
			row = append(row, dm.PagesIn, dm.PagesOut, 1000*dm.PageInTime, 1000*dm.PageOutTime,
				dm.SessionsQueued, dm.SessionsRejected)
		}
		if degOn {
			row = append(row, dm.Degradations, dm.Restorations)
		}
		devTab.AddRow(row...)
	}
	devTab.Render(os.Stdout)
	tele.emit(sc.Duration)
}
