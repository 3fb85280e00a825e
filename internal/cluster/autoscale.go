package cluster

import (
	"strings"

	"vrex/internal/named"
	"vrex/internal/policyspec"
)

// View is the autoscaler's load summary at a control tick.
type View struct {
	// Nodes is the configured cluster size; Active the nodes in service.
	Nodes, Active int
	// Backlog is the mean queued seconds per in-service device (how far
	// behind real time the fleet's timelines run; see serve.FleetOps.Backlog).
	Backlog float64
	// Attainment is the frame SLO attainment over the frame outcomes (served,
	// missed, dropped) reported since the previous tick, whatever those
	// frames' arrival times (1 when none were reported).
	Attainment float64
}

// Autoscaler decides each control tick how many nodes should be in service;
// the cluster controller drains or reactivates scaler-owned nodes toward the
// returned count (clamped to [1, Nodes]). Fault-downed nodes stay down
// regardless.
type Autoscaler interface {
	Name() string
	Reset(nodes int)
	Scale(now float64, v View) int
}

// queueScaler scales on backlog: one node out above hi queued seconds per
// device, one node in below lo.
type queueScaler struct{ hi, lo float64 }

func (queueScaler) Name() string { return "queue" }
func (queueScaler) Reset(int)    {}
func (s queueScaler) Scale(_ float64, v View) int {
	switch {
	case v.Backlog > s.hi:
		return v.Active + 1
	case v.Backlog < s.lo:
		return v.Active - 1
	}
	return v.Active
}

// sloScaler scales on SLO attainment: one node out while attainment runs
// below target, one node in when attainment holds and the backlog is below
// lo (capacity is provably spare).
type sloScaler struct{ target, lo float64 }

func (sloScaler) Name() string { return "slo" }
func (sloScaler) Reset(int)    {}
func (s sloScaler) Scale(_ float64, v View) int {
	switch {
	case v.Attainment < s.target:
		return v.Active + 1
	case v.Backlog < s.lo:
		return v.Active - 1
	}
	return v.Active
}

// autoscalers is the autoscaler registry: CLIs resolve -autoscale specs here.
var autoscalers = named.New[func(*policyspec.Spec) (Autoscaler, error)]("cluster", "autoscaler")

func init() {
	RegisterAutoscaler("queue", func(sp *policyspec.Spec) (Autoscaler, error) {
		s := queueScaler{hi: sp.Float("hi", 1), lo: sp.Float("lo", 0.1)}
		return s, sp.CheckConsumed("hi", "lo")
	})
	RegisterAutoscaler("slo", func(sp *policyspec.Spec) (Autoscaler, error) {
		s := sloScaler{target: sp.Float("target", 0.95), lo: sp.Float("lo", 0.1)}
		return s, sp.CheckConsumed("target", "lo")
	})
}

// RegisterAutoscaler adds an autoscaler factory under name (lower-cased);
// duplicates panic — registry names are part of the CLI surface.
func RegisterAutoscaler(name string, f func(*policyspec.Spec) (Autoscaler, error)) {
	autoscalers.Register(name, f)
}

// AutoscalerNames returns the registered autoscaler names, sorted.
func AutoscalerNames() []string { return autoscalers.Names() }

// ParseAutoscaler builds an autoscaler from a policyspec string, e.g.
// "queue(hi=2,lo=0.2)" or "slo(target=0.99)"; "" and "none" disable
// autoscaling (nil scaler).
func ParseAutoscaler(spec string) (Autoscaler, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || strings.EqualFold(spec, "none") {
		return nil, nil
	}
	sp, err := policyspec.Parse(spec)
	if err != nil {
		return nil, err
	}
	f, ok := autoscalers.Lookup(sp.Name)
	if !ok {
		return nil, autoscalers.Unknown(sp.Name)
	}
	return f(sp)
}
