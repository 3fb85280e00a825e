// Package scenario is the declarative workload layer of the serving
// simulator: a spec-string-consistent file format (scenarios/*.vrex)
// describing time-varying load — diurnal rate cycles, flash crowds,
// heavy-tailed (Pareto/lognormal) session lifetimes, correlated per-class
// bursts, and replay of recorded per-session arrival traces — compiled into
// the arrival/lifetime/class hooks the serve churn plane consumes
// (serve.ChurnConfig).
//
// The zero-value load shape (constant-rate Poisson arrivals, exponential
// lifetimes, static class weights) compiles to *nil* hooks, so it reduces
// byte-identically to the plain ChurnConfig the CLI flags always built:
// scenario files are a strict superset of the legacy -churn-*/-mix surface,
// and cmd/vrex-sim's flags are now sugar that synthesizes an in-memory
// Scenario (see -scenario-dump).
//
// The package also ships an adversarial generator (Search): a seeded
// hill-climb over scenario load-shape parameters maximizing deadline damage
// for a given scheduler spec, feeding the committed hostile suite under
// scenarios/.
package scenario

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"vrex/internal/cluster"
	"vrex/internal/degrade"
	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
	"vrex/internal/mathx"
	"vrex/internal/serve"
	"vrex/internal/workload"
)

// ArrivalSpec describes the session arrival process.
//
//	none                                     no churn arrivals
//	poisson(rate=R)                          constant-rate Poisson
//	diurnal(rate=R,amp=A,period=P[,phase=F]) rate R*(1+A*sin(2*pi*(t+F)/P))
//	flash(rate=R,at=T,dur=D,mult=M)          rate R, but R*M during [T,T+D)
//	trace                                    replay the scenario's trace block
type ArrivalSpec struct {
	Kind   string // "none", "poisson", "diurnal", "flash", "trace"
	Rate   float64
	Amp    float64 // diurnal amplitude fraction in [0, 1]
	Period float64 // diurnal period, seconds
	Phase  float64 // diurnal phase shift, seconds
	At     float64 // flash start, seconds
	Dur    float64 // flash duration, seconds
	Mult   float64 // flash rate multiplier
}

// LifetimeSpec describes the session lifetime distribution.
//
//	none                        sessions stay for the rest of the run
//	exp(mean=M)                 exponential (the legacy churn-life flag)
//	pareto(shape=A,scale=X)     Pareto type I: X*(1-u)^(-1/A), heavy-tailed
//	lognormal(mu=M,sigma=S)     exp(M + S*N(0,1))
type LifetimeSpec struct {
	Kind  string // "none", "exp", "pareto", "lognormal"
	Mean  float64
	Shape float64
	Scale float64
	Mu    float64
	Sigma float64
}

// BurstSpec is a correlated per-class burst: extra arrivals of one class at
// Rate/s during [At, At+Dur). Bursts raise the total arrival rate and tilt
// the class mix toward the bursting class inside the window — the correlated
// load shape Poisson churn can never produce.
type BurstSpec struct {
	Rate float64
	At   float64
	Dur  float64
}

// ClassSpec is one component of the scenario's stream mix; Name resolves via
// serve.ClassByName. Priority -1 (the default) falls back to mix order, the
// priority-scheduler convention the CLI always used.
type ClassSpec struct {
	Name     string
	Weight   float64
	SLOms    float64
	Priority int
	Burst    *BurstSpec
}

// Scenario is one parsed .vrex file: the complete description of a serving
// run. Build one with Parse/ParseFile, render the canonical form with
// Marshal, and compile to a runnable configuration with Config.
type Scenario struct {
	Name     string
	Duration float64
	Seed     uint64
	Streams  int
	Devices  int
	Device   string
	Policy   string
	Balancer string
	// Scheduler is a serve scheduler spec ("none" is batch-1 fifo); BatchMax
	// and SLOms mirror the -batch-max/-slo-ms flags.
	Scheduler string
	BatchMax  int
	SLOms     float64
	Drop      float64
	// KVCapacity is the per-device KV budget: "0" (plane disabled), "auto",
	// or gigabytes; Spill and PageTokens mirror -spill/-page-tokens.
	KVCapacity string
	Spill      string
	PageTokens int
	// Degrade is the graceful-degradation controller spec (""/"none"
	// disables; see internal/degrade: static, pressure, deadline, hybrid),
	// mirroring -degrade.
	Degrade  string
	Arrival  ArrivalSpec
	Lifetime LifetimeSpec
	Classes  []ClassSpec
	// Trace is the recorded per-session arrival trace replayed when
	// Arrival.Kind is "trace".
	Trace []workload.TraceEvent
	// Nodes, when non-empty, turns the scenario into a cluster run (see
	// IsCluster / ClusterConfig): a canonical cluster.ParseNodes list
	// ("vrex8:4@us,a100:2@eu"). The remaining cluster keys only apply then.
	Nodes string
	// Router is the cluster session router spec ("" means round-robin).
	Router string
	// Autoscale is the cluster autoscaler spec (""/"none" disables).
	Autoscale string
	// InitialNodes is the number of nodes in service at t=0 under an
	// autoscaler (0 starts everything).
	InitialNodes int
	// RebalanceMoves / RebalanceSlack configure the per-tick session
	// rebalancer (moves 0 disables it).
	RebalanceMoves int
	RebalanceSlack float64
	// Faults are the injected node drains / failures ("fault" lines).
	Faults []cluster.Fault
}

// Default returns the scenario matching cmd/vrex-sim's serving-flag
// defaults: 8 initial 2fps sessions on one V-Rex8 for 20 s, round-robin, no
// churn, no KV plane, batch-1 fifo scheduling.
func Default() *Scenario {
	return &Scenario{
		Name:       "custom",
		Duration:   20,
		Seed:       1,
		Streams:    8,
		Devices:    1,
		Device:     "vrex8",
		Policy:     "resv",
		Balancer:   "round-robin",
		Scheduler:  "none",
		Drop:       4,
		KVCapacity: "0",
		Spill:      "none",
		Arrival:    ArrivalSpec{Kind: "none"},
		Lifetime:   LifetimeSpec{Kind: "none"},
		Classes:    []ClassSpec{{Name: "2fps", Weight: 1, Priority: -1}},
	}
}

// Clone returns a deep copy (Classes, Burst and Trace are not shared).
func (s *Scenario) Clone() *Scenario {
	c := *s
	c.Classes = make([]ClassSpec, len(s.Classes))
	copy(c.Classes, s.Classes)
	for i, cl := range c.Classes {
		if cl.Burst != nil {
			b := *cl.Burst
			c.Classes[i].Burst = &b
		}
	}
	c.Trace = append([]workload.TraceEvent(nil), s.Trace...)
	c.Faults = append([]cluster.Fault(nil), s.Faults...)
	return &c
}

// ParseKVCapacity decodes a kv-capacity value: gigabytes, "auto" (derive
// from the device spec) or "0"/"" (plane disabled), returned in bytes
// (serve.AutoCapacity for auto).
func ParseKVCapacity(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch s {
	case "", "0":
		return 0, nil
	case "auto":
		return serve.AutoCapacity, nil
	}
	gb, err := strconv.ParseFloat(s, 64)
	if err != nil || gb <= 0 || math.IsInf(gb, 0) {
		return 0, fmt.Errorf("bad kv-capacity %q: want gigabytes, 'auto' or 0", s)
	}
	return gb * 1e9, nil
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// maxExpectedSessions bounds the arrival volume a scenario may declare
// (peak rate x duration): a lint-time guard against runaway session
// populations, far above anything the committed suite needs.
const maxExpectedSessions = 1e6

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate checks the scenario semantically: field ranges, registry
// resolution (device, policy, balancer, scheduler, spill, classes) and
// cross-field constraints, with the same rules the CLI flags enforce.
func (s *Scenario) Validate() error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario: name %q must match %s", s.Name, nameRE)
	}
	if !(s.Duration > 0) || math.IsInf(s.Duration, 0) {
		return fmt.Errorf("scenario %s: duration must be a positive finite number, got %v", s.Name, s.Duration)
	}
	if s.Streams < 0 {
		return fmt.Errorf("scenario %s: negative streams %d", s.Name, s.Streams)
	}
	if s.Devices < 1 {
		return fmt.Errorf("scenario %s: devices must be >= 1, got %d", s.Name, s.Devices)
	}
	if _, ok := hwsim.DeviceByName(s.Device); !ok {
		return fmt.Errorf("scenario %s: unknown device %q (known: %s)", s.Name, s.Device, strings.Join(hwsim.DeviceNames(), ", "))
	}
	if _, err := hwsim.ParsePolicy(s.Policy); err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if _, err := serve.NewBalancer(s.Balancer); err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	sched, err := serve.ParseScheduler(s.Scheduler)
	if err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if s.BatchMax < 0 || (s.BatchMax > 0 && sched == nil) {
		return fmt.Errorf("scenario %s: batch-max %d needs a scheduler and must be non-negative", s.Name, s.BatchMax)
	}
	if s.SLOms < 0 || !finite(s.SLOms) || (s.SLOms > 0 && sched == nil) {
		return fmt.Errorf("scenario %s: slo-ms %v needs a scheduler and must be non-negative and finite", s.Name, s.SLOms)
	}
	if s.Drop < 0 || !finite(s.Drop) {
		return fmt.Errorf("scenario %s: drop %v must be non-negative and finite", s.Name, s.Drop)
	}
	capacity, err := ParseKVCapacity(s.KVCapacity)
	if err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	spill, err := kvpool.ParseSpill(s.Spill)
	if err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if s.PageTokens < 0 {
		return fmt.Errorf("scenario %s: negative page-tokens %d", s.Name, s.PageTokens)
	}
	if capacity == 0 && (s.PageTokens != 0 || spill.Evict != nil) {
		return fmt.Errorf("scenario %s: spill and page-tokens need the memory-pressure plane: set kv-capacity", s.Name)
	}
	if _, err := degrade.Parse(s.Degrade); err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if err := s.validateCluster(); err != nil {
		return err
	}
	if err := s.validateClasses(); err != nil {
		return err
	}
	if err := s.validateArrival(); err != nil {
		return err
	}
	if err := s.validateLifetime(); err != nil {
		return err
	}
	if s.Streams == 0 && s.Arrival.Kind == "none" {
		return fmt.Errorf("scenario %s: no sessions to serve: set streams >= 1 or an arrival process", s.Name)
	}
	if rm := s.rateModel(); rm.max()*s.Duration > maxExpectedSessions {
		return fmt.Errorf("scenario %s: peak arrival rate %.3g/s over %gs expects more than %g sessions", s.Name, rm.max(), s.Duration, maxExpectedSessions)
	}
	return nil
}

// IsCluster reports whether the scenario describes a cluster run (a "nodes"
// line is present); cluster scenarios compile with ClusterConfig.
func (s *Scenario) IsCluster() bool { return s.Nodes != "" }

func (s *Scenario) validateCluster() error {
	if !s.IsCluster() {
		// The cluster keys are meaningless without a node list; reject them
		// so a typo'd "nodes" line doesn't silently demote the scenario.
		switch {
		case s.Router != "":
			return fmt.Errorf("scenario %s: router needs a node list: set nodes", s.Name)
		case s.Autoscale != "":
			return fmt.Errorf("scenario %s: autoscale needs a node list: set nodes", s.Name)
		case s.InitialNodes != 0:
			return fmt.Errorf("scenario %s: initial-nodes needs a node list: set nodes", s.Name)
		case s.RebalanceMoves != 0 || s.RebalanceSlack != 0:
			return fmt.Errorf("scenario %s: rebalance keys need a node list: set nodes", s.Name)
		case len(s.Faults) > 0:
			return fmt.Errorf("scenario %s: fault lines need a node list: set nodes", s.Name)
		}
		return nil
	}
	nodes, err := cluster.ParseNodes(s.Nodes)
	if err != nil {
		return fmt.Errorf("scenario %s: nodes: %v", s.Name, err)
	}
	if s.Devices != 1 {
		return fmt.Errorf("scenario %s: devices comes from the node list in cluster scenarios (leave devices unset)", s.Name)
	}
	if _, err := cluster.ParseRouter(s.Router); err != nil {
		return fmt.Errorf("scenario %s: router: %v", s.Name, err)
	}
	scaler, err := cluster.ParseAutoscaler(s.Autoscale)
	if err != nil {
		return fmt.Errorf("scenario %s: autoscale: %v", s.Name, err)
	}
	if s.InitialNodes != 0 {
		if scaler == nil {
			return fmt.Errorf("scenario %s: initial-nodes needs an autoscaler to grow the cluster back: set autoscale", s.Name)
		}
		if s.InitialNodes < 0 || s.InitialNodes > len(nodes) {
			return fmt.Errorf("scenario %s: initial-nodes %d out of range [0, %d]", s.Name, s.InitialNodes, len(nodes))
		}
	}
	if s.RebalanceMoves < 0 {
		return fmt.Errorf("scenario %s: negative rebalance-moves %d", s.Name, s.RebalanceMoves)
	}
	if s.RebalanceSlack < 0 || !finite(s.RebalanceSlack) {
		return fmt.Errorf("scenario %s: rebalance-slack %v must be non-negative and finite", s.Name, s.RebalanceSlack)
	}
	if s.RebalanceSlack != 0 && s.RebalanceMoves == 0 {
		return fmt.Errorf("scenario %s: rebalance-slack needs rebalance-moves", s.Name)
	}
	for i, f := range s.Faults {
		if f.Node >= len(nodes) {
			return fmt.Errorf("scenario %s: fault %d targets node %d of a %d-node cluster", s.Name, i, f.Node, len(nodes))
		}
	}
	return nil
}

// ClusterConfig compiles a cluster scenario (IsCluster) into a runnable
// cluster.Config: the scenario's serving planes become the shared node base
// and the cluster keys pick topology, router, autoscaler, rebalancer and
// faults. The caller owns Base.Workers and Base.Observer.
func (s *Scenario) ClusterConfig() (cluster.Config, error) {
	if !s.IsCluster() {
		return cluster.Config{}, fmt.Errorf("scenario %s: not a cluster scenario (no nodes line)", s.Name)
	}
	base, err := s.Config()
	if err != nil {
		return cluster.Config{}, err
	}
	nodes, err := cluster.ParseNodes(s.Nodes)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("scenario %s: nodes: %v", s.Name, err)
	}
	router, err := cluster.ParseRouter(s.Router)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("scenario %s: router: %v", s.Name, err)
	}
	scaler, err := cluster.ParseAutoscaler(s.Autoscale)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("scenario %s: autoscale: %v", s.Name, err)
	}
	balSpec := s.Balancer
	return cluster.Config{
		Nodes:  nodes,
		Base:   base,
		Router: router,
		NodeBalancer: func() serve.Balancer {
			b, err := serve.NewBalancer(balSpec)
			if err != nil {
				panic(fmt.Sprintf("scenario: balancer %q validated but failed to build: %v", balSpec, err))
			}
			return b
		},
		Autoscaler:   scaler,
		InitialNodes: s.InitialNodes,
		Faults:       append([]cluster.Fault(nil), s.Faults...),
		Rebalance:    cluster.RebalanceConfig{MaxMoves: s.RebalanceMoves, Slack: s.RebalanceSlack},
	}, nil
}

func (s *Scenario) validateClasses() error {
	if len(s.Classes) == 0 {
		return fmt.Errorf("scenario %s: needs at least one class", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Classes {
		if _, ok := serve.ClassByName(c.Name); !ok {
			return fmt.Errorf("scenario %s: unknown stream class %q (known: %s)", s.Name, c.Name, strings.Join(serve.ClassNames(), ", "))
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario %s: class %q repeated", s.Name, c.Name)
		}
		seen[c.Name] = true
		if !(c.Weight > 0) || math.IsInf(c.Weight, 0) {
			return fmt.Errorf("scenario %s: class %q weight %v must be positive and finite", s.Name, c.Name, c.Weight)
		}
		if c.SLOms < 0 || !finite(c.SLOms) {
			return fmt.Errorf("scenario %s: class %q slo-ms %v must be non-negative and finite", s.Name, c.Name, c.SLOms)
		}
		if c.Priority < -1 {
			return fmt.Errorf("scenario %s: class %q priority %d must be >= 0 (or unset)", s.Name, c.Name, c.Priority)
		}
		if b := c.Burst; b != nil {
			if !(b.Rate > 0) || math.IsInf(b.Rate, 0) || b.At < 0 || !finite(b.At) || !(b.Dur > 0) || math.IsInf(b.Dur, 0) {
				return fmt.Errorf("scenario %s: class %q burst needs burst-rate > 0, burst-at >= 0, burst-dur > 0 (got rate=%v at=%v dur=%v)",
					s.Name, c.Name, b.Rate, b.At, b.Dur)
			}
			if s.Arrival.Kind == "none" || s.Arrival.Kind == "trace" {
				return fmt.Errorf("scenario %s: class %q burst needs a base arrival process (poisson, diurnal or flash)", s.Name, c.Name)
			}
		}
	}
	return nil
}

func (s *Scenario) validateArrival() error {
	a := s.Arrival
	bad := func(field string, v float64) error {
		return fmt.Errorf("scenario %s: arrivals %s: bad %s %v", s.Name, a.Kind, field, v)
	}
	switch a.Kind {
	case "none":
		if len(s.Trace) > 0 {
			return fmt.Errorf("scenario %s: trace events need 'arrivals trace'", s.Name)
		}
	case "poisson":
		if !(a.Rate > 0) || math.IsInf(a.Rate, 0) {
			return bad("rate", a.Rate)
		}
	case "diurnal":
		switch {
		case !(a.Rate > 0) || math.IsInf(a.Rate, 0):
			return bad("rate", a.Rate)
		case a.Amp < 0 || a.Amp > 1 || math.IsNaN(a.Amp):
			return bad("amp", a.Amp)
		case !(a.Period > 0) || math.IsInf(a.Period, 0):
			return bad("period", a.Period)
		case !finite(a.Phase):
			return bad("phase", a.Phase)
		}
	case "flash":
		switch {
		case !(a.Rate > 0) || math.IsInf(a.Rate, 0):
			return bad("rate", a.Rate)
		case a.At < 0 || !finite(a.At):
			return bad("at", a.At)
		case !(a.Dur > 0) || math.IsInf(a.Dur, 0):
			return bad("dur", a.Dur)
		case a.Mult < 0 || !finite(a.Mult):
			return bad("mult", a.Mult)
		}
	case "trace":
		if s.Streams != 0 {
			return fmt.Errorf("scenario %s: trace replay needs streams 0 (every session comes from the trace)", s.Name)
		}
		if s.Lifetime.Kind != "none" {
			return fmt.Errorf("scenario %s: trace replay carries its own lifetimes: set lifetime none", s.Name)
		}
		if len(s.Trace) == 0 {
			return fmt.Errorf("scenario %s: 'arrivals trace' needs at least one trace event", s.Name)
		}
		known := map[string]bool{}
		for _, c := range s.Classes {
			known[c.Name] = true
		}
		for i, e := range s.Trace {
			if e.At < 0 || !finite(e.At) || e.Lifetime < 0 || !finite(e.Lifetime) {
				return fmt.Errorf("scenario %s: trace event %d: at=%v life=%v must be non-negative and finite", s.Name, i, e.At, e.Lifetime)
			}
			if !known[e.Class] {
				return fmt.Errorf("scenario %s: trace event %d references class %q not in the mix", s.Name, i, e.Class)
			}
		}
	default:
		return fmt.Errorf("scenario %s: unknown arrival process %q (known: none, poisson, diurnal, flash, trace)", s.Name, a.Kind)
	}
	return nil
}

func (s *Scenario) validateLifetime() error {
	l := s.Lifetime
	switch l.Kind {
	case "none":
	case "exp":
		if l.Mean < 0 || !finite(l.Mean) {
			return fmt.Errorf("scenario %s: lifetime exp: bad mean %v", s.Name, l.Mean)
		}
	case "pareto":
		if !(l.Shape > 0) || math.IsInf(l.Shape, 0) || !(l.Scale > 0) || math.IsInf(l.Scale, 0) {
			return fmt.Errorf("scenario %s: lifetime pareto: shape %v and scale %v must be positive and finite", s.Name, l.Shape, l.Scale)
		}
	case "lognormal":
		if !finite(l.Mu) || l.Sigma < 0 || !finite(l.Sigma) {
			return fmt.Errorf("scenario %s: lifetime lognormal: bad mu %v / sigma %v", s.Name, l.Mu, l.Sigma)
		}
	default:
		return fmt.Errorf("scenario %s: unknown lifetime distribution %q (known: none, exp, pareto, lognormal)", s.Name, l.Kind)
	}
	return nil
}

// Config compiles the scenario into a runnable serve.Config: registries
// resolved, the load shape compiled into churn hooks (or, for the
// constant-rate Poisson/exponential/static-mix case, into the plain
// ChurnConfig fields — byte-identical to the legacy flag surface). The
// caller owns Workers and Observer; everything else is set.
func (s *Scenario) Config() (serve.Config, error) {
	if err := s.Validate(); err != nil {
		return serve.Config{}, err
	}
	dev, _ := hwsim.DeviceByName(s.Device)
	pol, err := hwsim.ParsePolicy(s.Policy)
	if err != nil {
		return serve.Config{}, err
	}
	bal, err := serve.NewBalancer(s.Balancer)
	if err != nil {
		return serve.Config{}, err
	}
	sched, err := serve.ParseScheduler(s.Scheduler)
	if err != nil {
		return serve.Config{}, err
	}
	classes := make([]serve.StreamClass, len(s.Classes))
	for i, c := range s.Classes {
		shape, _ := serve.ClassByName(c.Name)
		prio := c.Priority
		if prio < 0 {
			prio = i
		}
		classes[i] = serve.StreamClass{
			Name: c.Name, Weight: c.Weight, Stream: shape,
			SLO: c.SLOms / 1000, Priority: prio,
		}
	}
	cfg := serve.Config{
		Dev: dev, Pol: pol,
		Streams: s.Streams, Duration: s.Duration,
		Classes: classes, Devices: s.Devices, Balancer: bal,
		Churn:         s.churn(),
		DropThreshold: s.Drop, Seed: s.Seed,
	}
	capacity, err := ParseKVCapacity(s.KVCapacity)
	if err != nil {
		return serve.Config{}, err
	}
	if capacity != 0 {
		spill, err := kvpool.ParseSpill(s.Spill)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.KV = serve.KVConfig{Capacity: capacity, PageTokens: s.PageTokens, Spill: spill}
		if _, _, _, err := cfg.KV.PoolShape(dev, pol); err != nil {
			return serve.Config{}, fmt.Errorf("scenario %s: %v", s.Name, err)
		}
	}
	if sched != nil {
		cfg.Scheduler = serve.SchedulerConfig{Policy: sched, BatchMax: s.BatchMax, SLO: s.SLOms / 1000}
	}
	if cfg.Degrade, err = degrade.Parse(s.Degrade); err != nil {
		return serve.Config{}, err
	}
	return cfg, nil
}

// --- load-shape compilation ---

// rateModel is the scenario's total arrival rate: the base process plus
// every class burst.
type rateModel struct {
	base   ArrivalSpec
	bursts []burstOf
}

type burstOf struct {
	class int
	BurstSpec
}

func (s *Scenario) rateModel() rateModel {
	rm := rateModel{base: s.Arrival}
	for i, c := range s.Classes {
		if c.Burst != nil {
			rm.bursts = append(rm.bursts, burstOf{class: i, BurstSpec: *c.Burst})
		}
	}
	return rm
}

// baseAt is the base process's instantaneous rate at time t.
func (r rateModel) baseAt(t float64) float64 {
	switch r.base.Kind {
	case "poisson":
		return r.base.Rate
	case "diurnal":
		v := r.base.Rate * (1 + r.base.Amp*math.Sin(2*math.Pi*(t+r.base.Phase)/r.base.Period))
		if v < 0 {
			return 0
		}
		return v
	case "flash":
		if t >= r.base.At && t < r.base.At+r.base.Dur {
			return r.base.Rate * r.base.Mult
		}
		return r.base.Rate
	}
	return 0 // none / trace
}

// burstAt is class c's extra burst rate at time t.
func (r rateModel) burstAt(c int, t float64) float64 {
	var v float64
	for _, b := range r.bursts {
		if b.class == c && t >= b.At && t < b.At+b.Dur {
			v += b.Rate
		}
	}
	return v
}

// at is the total arrival rate at time t.
func (r rateModel) at(t float64) float64 {
	v := r.baseAt(t)
	for _, b := range r.bursts {
		if t >= b.At && t < b.At+b.Dur {
			v += b.Rate
		}
	}
	return v
}

// max upper-bounds the total rate over all t (the thinning envelope).
func (r rateModel) max() float64 {
	var m float64
	switch r.base.Kind {
	case "poisson":
		m = r.base.Rate
	case "diurnal":
		m = r.base.Rate * (1 + r.base.Amp)
	case "flash":
		m = r.base.Rate * math.Max(1, r.base.Mult)
	}
	for _, b := range r.bursts {
		m += b.Rate
	}
	return m
}

// varying reports whether the base process is time-varying.
func (r rateModel) varying() bool {
	return r.base.Kind == "diurnal" || r.base.Kind == "flash"
}

// churn compiles the load shape into serve.ChurnConfig. Constant-rate
// Poisson arrivals, exponential lifetimes and a static class mix compile to
// the plain rate fields with nil hooks — the exact objects the legacy CLI
// flags built, so the zero-value scenario reduces byte-identically.
func (s *Scenario) churn() serve.ChurnConfig {
	var cc serve.ChurnConfig
	rm := s.rateModel()

	if s.Arrival.Kind == "trace" {
		times := make([]float64, len(s.Trace))
		classIdx := make([]int, len(s.Trace))
		lives := make([]float64, len(s.Trace))
		byName := map[string]int{}
		for i, c := range s.Classes {
			byName[c.Name] = i
		}
		for i, e := range s.Trace {
			times[i] = e.At
			classIdx[i] = byName[e.Class]
			lives[i] = e.Lifetime
		}
		cc.Arrivals = func(rng *mathx.RNG, duration float64) []float64 { return times }
		cc.Class = func(rng *mathx.RNG, ordinal int, start float64) int {
			if ordinal < len(classIdx) {
				return classIdx[ordinal]
			}
			return 0
		}
		cc.Lifetime = func(rng *mathx.RNG, ordinal int, start float64) float64 {
			if ordinal < len(lives) {
				return lives[ordinal]
			}
			return 0
		}
		return cc
	}

	switch {
	case rm.varying() || len(rm.bursts) > 0:
		// Time-varying total rate: Lewis-Shedler thinning against the
		// envelope rate. Deterministic for a given rng.
		if lmax := rm.max(); lmax > 0 {
			cc.Arrivals = func(rng *mathx.RNG, duration float64) []float64 {
				var times []float64
				for t := rng.Exp(1 / lmax); t < duration; t += rng.Exp(1 / lmax) {
					if rng.Float64()*lmax < rm.at(t) {
						times = append(times, t)
					}
				}
				return times
			}
		}
	default:
		cc.ArrivalRate = s.Arrival.Rate // poisson or none (0)
	}

	if len(rm.bursts) > 0 {
		// Correlated class mix: an arrival at time t is class c with
		// probability proportional to its share of the base rate plus its own
		// burst rate — the burst both raises the total rate and tilts the mix.
		weights := make([]float64, len(s.Classes))
		var wsum float64
		for i, c := range s.Classes {
			weights[i] = c.Weight
			wsum += c.Weight
		}
		cc.Class = func(rng *mathx.RNG, ordinal int, start float64) int {
			lb := rm.baseAt(start)
			total := lb
			for _, b := range rm.bursts {
				if start >= b.At && start < b.At+b.Dur {
					total += b.Rate
				}
			}
			u := rng.Float64()
			if total <= 0 {
				// No instantaneous rate (e.g. an initial session at a dead
				// instant): fall back to the static weights.
				x := u * wsum
				for c := range weights {
					x -= weights[c]
					if x < 0 {
						return c
					}
				}
				return len(weights) - 1
			}
			x := u * total
			for c := range weights {
				x -= weights[c]/wsum*lb + rm.burstAt(c, start)
				if x < 0 {
					return c
				}
			}
			return len(weights) - 1
		}
	}

	switch s.Lifetime.Kind {
	case "exp":
		cc.MeanLifetime = s.Lifetime.Mean
	case "pareto":
		shape, scale := s.Lifetime.Shape, s.Lifetime.Scale
		cc.Lifetime = func(rng *mathx.RNG, ordinal int, start float64) float64 {
			return scale * math.Pow(1-rng.Float64(), -1/shape)
		}
	case "lognormal":
		mu, sigma := s.Lifetime.Mu, s.Lifetime.Sigma
		cc.Lifetime = func(rng *mathx.RNG, ordinal int, start float64) float64 {
			return math.Exp(mu + sigma*rng.Norm())
		}
	}
	return cc
}
