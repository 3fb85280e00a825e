package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"vrex/internal/cluster"
	"vrex/internal/mathx"
	"vrex/internal/scenario"
	"vrex/internal/serve"
	"vrex/scenarios"
)

// The serving workloads run the repository's committed scenario suite
// (package vrex/scenarios) unchanged except for the seed. serve-suite runs
// every single-node file, cluster-fault the one cluster file.
var (
	serveSuiteFiles   = []string{"burst.vrex", "diurnal.vrex", "flash-crowd.vrex", "heavy-tail.vrex", "pressure.vrex", "trace-replay.vrex"}
	clusterFaultFiles = []string{"node-fault.vrex"}
)

// instances is how many distinct operations a serving workload prepares.
// One operation runs every file once at each of its own seeds; operations
// cycle through the instances, so each is run many times per measurement.
const instances = 64

// counters are the headline results of one scenario run: its event counts
// and its median and 99th-percentile frame latency, which move with any
// change to how the simulator prices a step.
type counters struct {
	Arrived, Served, Dropped, Misses, PagesIn, PagesOut, Degradations, Migrations int
	P50, P99                                                                      float64
}

func countersOf(r serve.Result) counters {
	a := r.Aggregate
	return counters{a.FramesArrived, a.FramesServed, a.FramesDropped, a.DeadlineMisses,
		r.Memory.PagesIn, r.Memory.PagesOut, a.Degradations, r.Migrations.Live + r.Migrations.Lossy, a.P50, a.P99}
}

// committed holds each committed file's counters when it is run as written,
// at its own seed. They were recorded from the simulator as of this
// benchmark's introduction; a change that alters what is simulated (pricing,
// paging, degradation, routing) changes them and fails the run.
var committed = map[string]counters{
	"burst.vrex": {Arrived: 816, Served: 288, Dropped: 528, Misses: 12,
		P50: 0.28795747405667527, P99: 1.045565391597125},
	"diurnal.vrex": {Arrived: 849, Served: 154, Dropped: 695, Misses: 141,
		P50: 2.0413624996350874, P99: 2.1698207310050788},
	"flash-crowd.vrex": {Arrived: 1129, Served: 264, Dropped: 865, Misses: 154,
		P50: 1.0020087855188144, P99: 2.1763914405554243},
	"heavy-tail.vrex": {Arrived: 658, Served: 153, Dropped: 505, Misses: 118,
		P50: 1.9735214565718806, P99: 2.1667692663853573},
	"pressure.vrex": {Arrived: 241, Served: 161, Dropped: 80, Misses: 70, PagesIn: 637, PagesOut: 805, Degradations: 63,
		P50: 0.392891868994532, P99: 9.934565606150727},
	"trace-replay.vrex": {Arrived: 510, Served: 105, Dropped: 405, Misses: 96,
		P50: 2.046872425760281, P99: 2.1658559443014442},
	"node-fault.vrex": {Arrived: 449, Served: 395, Dropped: 54, Misses: 41, Migrations: 2,
		P50: 0.21368857027225552, P99: 2.1012753516048686},
}

// An operation of serve-suite runs its six files at one seed. node-fault
// runs take about a millisecond each, so a cluster-fault operation runs it
// at eight seeds: one seed's run time depends on its arrivals, and averaging
// eight keeps the per-operation percentiles alike across --seed values.
func newServeSuite(seed uint64) (suite, error)   { return newScenarioSuite(serveSuiteFiles, 1, seed) }
func newClusterFault(seed uint64) (suite, error) { return newScenarioSuite(clusterFaultFiles, 8, seed) }

// job is one compiled scenario: a single-node config, or a cluster one.
type job struct {
	serve   serve.Config
	cluster *cluster.Config
}

// scenarioSuite runs committed scenarios through the scenario compiler and
// the serving engine (serve.Run, or cluster.Run for cluster scenarios).
type scenarioSuite struct {
	files []string
	// jobs[k][j] is instance k's run j, of file names[j].
	jobs  [][]job
	names []string
	// ref[k] is the result digest of instance k's first run; every later
	// run of the instance must reproduce it.
	ref []uint64
	// The last operation's instance, and per run its result and event
	// counts by kind; j is the run whose events the observer counts.
	k, j    int
	res     []serve.Result
	windows [][]cluster.Window
	kinds   [][]int
	// Totals over all runs, for the per-layer counts.
	events, batches, pages, migrations, degradations int
}

// newScenarioSuite compiles files at seedsPerOp seeds per instance, all
// drawn from seed.
func newScenarioSuite(files []string, seedsPerOp int, seed uint64) (*scenarioSuite, error) {
	n := len(files) * seedsPerOp
	s := &scenarioSuite{files: files, ref: make([]uint64, instances),
		res: make([]serve.Result, n), windows: make([][]cluster.Window, n), kinds: make([][]int, n)}
	for range seedsPerOp {
		s.names = append(s.names, files...)
	}
	rng := mathx.NewRNG(seed)
	for k := 0; k < instances; k++ {
		var jobs []job
		var runSeed uint64
		for j, f := range s.names {
			if j%len(files) == 0 {
				runSeed = rng.Uint64() % 1e9
			}
			jb, err := s.compile(f, &runSeed)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, jb)
		}
		s.jobs = append(s.jobs, jobs)
	}
	return s, nil
}

// compile parses a committed file and compiles it, at seed unless seed is
// nil, with one worker and the suite's event counter attached.
func (s *scenarioSuite) compile(file string, seed *uint64) (job, error) {
	src, err := scenarios.Source(file)
	if err != nil {
		return job{}, err
	}
	sc, err := scenario.Parse(file, src)
	if err != nil {
		return job{}, err
	}
	if seed != nil {
		sc.Seed = *seed
	}
	obs := serve.ObserverFunc(s.observe)
	if sc.IsCluster() {
		cfg, err := sc.ClusterConfig()
		cfg.Base.Workers, cfg.Base.Observer = 1, obs
		return job{cluster: &cfg}, err
	}
	cfg, err := sc.Config()
	cfg.Workers, cfg.Observer = 1, obs
	return job{serve: cfg}, err
}

func (s *scenarioSuite) observe(e serve.Event) {
	ks := s.kinds[s.j]
	if int(e.Kind) >= len(ks) {
		ks = append(ks, make([]int, int(e.Kind)+1-len(ks))...)
		s.kinds[s.j] = ks
	}
	ks[e.Kind]++
}

func (s *scenarioSuite) unit() int { return instances }

func (s *scenarioSuite) op(i int, tr *tracer) int {
	s.k = i % instances
	frames := 0
	for j := range s.jobs[s.k] {
		s.runJob(j, s.jobs[s.k][j], tr)
		frames += s.res[j].Aggregate.FramesArrived
	}
	return frames
}

func (s *scenarioSuite) runJob(j int, jb job, tr *tracer) {
	s.j = j
	clear(s.kinds[j])
	span := tr.begin("run")
	if jb.cluster != nil {
		cr := cluster.Run(*jb.cluster)
		s.res[j], s.windows[j] = cr.Serve, cr.Windows
	} else {
		s.res[j] = serve.Run(jb.serve)
	}
	tr.end(span)
}

// verify runs each file as committed and compares its counters with the
// recorded ones.
func (s *scenarioSuite) verify() error {
	for j, f := range s.files {
		jb, err := s.compile(f, nil)
		if err != nil {
			return err
		}
		s.runJob(j, jb, nil)
		if err := s.reconcile(j); err != nil {
			return fmt.Errorf("%s as committed: %w", f, err)
		}
		want, ok := committed[f]
		if got := countersOf(s.res[j]); !ok || got != want {
			return fmt.Errorf("%s as committed: got %+v, want %+v", f, got, want)
		}
	}
	return nil
}

// check reconciles each run's event stream with its Result counters and
// checks that the results are identical to the instance's first run.
func (s *scenarioSuite) check() error {
	h := fnv.New64a()
	for j, f := range s.names {
		if err := s.reconcile(j); err != nil {
			return fmt.Errorf("instance %d, run %d of %s: %w", s.k, j, f, err)
		}
		r := s.res[j]
		fmt.Fprintf(h, "%v|%v|%v|%v|%v|", r.Aggregate, r.PerDevice, r.Memory, r.Migrations, s.windows[j])
	}
	switch d := h.Sum64() | 1; {
	case s.ref[s.k] == 0:
		s.ref[s.k] = d
	case s.ref[s.k] != d:
		return fmt.Errorf("instance %d: results differ from the instance's first run", s.k)
	}
	for j := range s.names {
		r := s.res[j]
		for _, n := range s.kinds[j] {
			s.events += n
		}
		s.batches += kind(s.kinds[j], serve.EventBatchFormed)
		s.pages += r.Memory.PagesIn + r.Memory.PagesOut
		s.migrations += r.Migrations.Live + r.Migrations.Lossy
		s.degradations += r.Aggregate.Degradations
	}
	return nil
}

// reconcile checks run j's last result: per-kind event counts match the
// Result counters, and every arrived frame was either served or dropped.
func (s *scenarioSuite) reconcile(j int) error {
	agg, mig := s.res[j].Aggregate, s.res[j].Migrations
	var bad []string
	for _, c := range []struct {
		kind serve.EventKind
		want int
	}{
		{serve.EventSessionStart, agg.Sessions},
		{serve.EventSessionEnd, agg.Sessions},
		{serve.EventFrameServed, agg.FramesServed},
		{serve.EventFrameDropped, agg.FramesDropped},
		{serve.EventQueryServed, agg.QueriesServed},
		{serve.EventQueryDropped, agg.QueriesDropped},
		{serve.EventDeadlineMissed, agg.DeadlineMisses},
		{serve.EventSessionMigrated, mig.Live + mig.Lossy},
		{serve.EventDegraded, agg.Degradations},
		{serve.EventRestored, agg.Restorations},
	} {
		if got := kind(s.kinds[j], c.kind); got != c.want {
			bad = append(bad, fmt.Sprintf("%v: %d events, result says %d", c.kind, got, c.want))
		}
	}
	if agg.FramesArrived != agg.FramesServed+agg.FramesDropped {
		bad = append(bad, fmt.Sprintf("%d frames arrived, %d served + %d dropped", agg.FramesArrived, agg.FramesServed, agg.FramesDropped))
	}
	if agg.FramesServed == 0 {
		bad = append(bad, "no frame served")
	}
	if bad != nil {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

func kind(kinds []int, k serve.EventKind) int {
	if int(k) < len(kinds) {
		return kinds[k]
	}
	return 0
}

func (s *scenarioSuite) counts(m metrics, ops int) {
	per := func(n int) float64 { return float64(n) / float64(ops) }
	m.set("events_per_op", per(s.events), "count")
	m.set("batches_per_op", per(s.batches), "count")
	m.set("pages_moved_per_op", per(s.pages), "count")
	m.set("migrations_per_op", per(s.migrations), "count")
	m.set("degradations_per_op", per(s.degradations), "count")
}
