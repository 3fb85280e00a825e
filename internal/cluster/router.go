package cluster

import (
	"fmt"
	"strings"

	"vrex/internal/named"
	"vrex/internal/policyspec"
	"vrex/internal/serve"
)

// NodeState is the router's live view of one node at placement time,
// aggregated from the node's devices in the current placement view (down
// devices are filtered out before routing, so Devices can be smaller than
// TotalDevices — or zero for a fully down node, which routers must skip).
type NodeState struct {
	Index        int
	Name, Region string
	// Devices counts the node's placeable devices in the current view;
	// TotalDevices its configured size.
	Devices, TotalDevices int
	// ActiveSessions / ResidentKV / FreePages / CapacityPages sum the view
	// devices' balancer-visible state.
	ActiveSessions           int
	ResidentKV               int
	FreePages, CapacityPages int
	// ClassSessions counts the node's active sessions per stream class.
	ClassSessions []int
	// Free is the earliest queue-drain time among the view devices.
	Free float64
}

// Router places arriving sessions on cluster nodes; a per-node balancer then
// picks the device within the chosen node. Implementations may carry state;
// Reset runs once before the first placement. Route must return a node with
// Devices > 0.
type Router interface {
	Name() string
	Reset(nodes int)
	Route(now float64, class int, nodes []NodeState) int
}

// roundRobinRouter cycles through nodes in index order, skipping nodes with
// no placeable devices.
type roundRobinRouter struct{ next int }

func (*roundRobinRouter) Name() string { return "round-robin" }
func (r *roundRobinRouter) Reset(int)  { r.next = 0 }
func (r *roundRobinRouter) Route(_ float64, _ int, nodes []NodeState) int {
	for i := 0; i < len(nodes); i++ {
		n := r.next % len(nodes)
		r.next++
		if nodes[n].Devices > 0 {
			return n
		}
	}
	return 0
}

// leastLoadedRouter picks the node with the fewest active sessions per
// placeable device, breaking ties by smaller resident KV, earlier
// queue-drain, then lower index. Load is normalised per device so a big node
// is allowed proportionally more sessions than a small one.
type leastLoadedRouter struct{}

func (leastLoadedRouter) Name() string { return "least-loaded" }
func (leastLoadedRouter) Reset(int)    {}
func (leastLoadedRouter) Route(_ float64, _ int, nodes []NodeState) int {
	return leastLoadedNode(nodes)
}

func leastLoadedNode(nodes []NodeState) int {
	best := -1
	for i := range nodes {
		if nodes[i].Devices == 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		a, b := &nodes[i], &nodes[best]
		// Compare sessions/device as cross-multiplied integers (exact).
		al := a.ActiveSessions * b.Devices
		bl := b.ActiveSessions * a.Devices
		switch {
		case al != bl:
			if al < bl {
				best = i
			}
		case a.ResidentKV != b.ResidentKV:
			if a.ResidentKV < b.ResidentKV {
				best = i
			}
		case a.Free < b.Free:
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// kvHeadroomRouter picks the node with the most free KV pool pages (ties
// fall back to least-loaded order) — placement tracks actual memory
// pressure, which matters when nodes have heterogeneous KV budgets.
type kvHeadroomRouter struct{}

func (kvHeadroomRouter) Name() string { return "kv-headroom" }
func (kvHeadroomRouter) Reset(int)    {}
func (kvHeadroomRouter) Route(_ float64, _ int, nodes []NodeState) int {
	best := -1
	for i := range nodes {
		if nodes[i].Devices == 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		a, b := &nodes[i], &nodes[best]
		switch {
		case a.FreePages != b.FreePages:
			if a.FreePages > b.FreePages {
				best = i
			}
		case a.ActiveSessions*b.Devices != b.ActiveSessions*a.Devices:
			if a.ActiveSessions*b.Devices < b.ActiveSessions*a.Devices {
				best = i
			}
		case a.Free < b.Free:
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// affinityRouter co-locates sessions of the same stream class on the same
// node (locality: sessions sharing a shape share cluster layouts and CDN
// edges), under a balance constraint mirroring serve.KVAffinity at node
// granularity: nodes holding more than a balanced per-device share (plus one
// session of slack) are ineligible, and among the rest the session joins the
// node with the most active sessions of its class.
type affinityRouter struct{}

func (affinityRouter) Name() string { return "affinity" }
func (affinityRouter) Reset(int)    {}
func (affinityRouter) Route(_ float64, class int, nodes []NodeState) int {
	total, devs := 0, 0
	for i := range nodes {
		if nodes[i].Devices == 0 {
			continue
		}
		total += nodes[i].ActiveSessions
		devs += nodes[i].Devices
	}
	if devs == 0 {
		return 0
	}
	// Balanced per-device share of the population including the arriving
	// session, rounded up, plus one session of slack for affinity to act on.
	share := (total + 1 + devs - 1) / devs
	best := -1
	for i := range nodes {
		n := &nodes[i]
		if n.Devices == 0 || n.ActiveSessions >= (share+1)*n.Devices {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		a, b := n, &nodes[best]
		if a.ClassSessions[class] != b.ClassSessions[class] {
			if a.ClassSessions[class] > b.ClassSessions[class] {
				best = i
			}
			continue
		}
		switch {
		case a.ActiveSessions*b.Devices != b.ActiveSessions*a.Devices:
			if a.ActiveSessions*b.Devices < b.ActiveSessions*a.Devices {
				best = i
			}
		case a.Free < b.Free:
			best = i
		}
	}
	if best < 0 {
		return leastLoadedNode(nodes)
	}
	return best
}

// routers is the router registry: CLIs resolve -router specs here through
// the shared policyspec grammar.
var routers = named.New[func(*policyspec.Spec) (Router, error)]("cluster", "router")

func init() {
	RegisterRouter("round-robin", func(sp *policyspec.Spec) (Router, error) {
		return &roundRobinRouter{}, sp.CheckConsumed()
	})
	RegisterRouter("least-loaded", func(sp *policyspec.Spec) (Router, error) {
		return leastLoadedRouter{}, sp.CheckConsumed()
	})
	RegisterRouter("kv-headroom", func(sp *policyspec.Spec) (Router, error) {
		return kvHeadroomRouter{}, sp.CheckConsumed()
	})
	RegisterRouter("affinity", func(sp *policyspec.Spec) (Router, error) {
		return affinityRouter{}, sp.CheckConsumed()
	})
}

// RegisterRouter adds a router factory under name (lower-cased); duplicates
// panic — registry names are part of the CLI surface.
func RegisterRouter(name string, f func(*policyspec.Spec) (Router, error)) {
	routers.Register(name, f)
}

// RouterNames returns the registered router names, sorted.
func RouterNames() []string { return routers.Names() }

// ParseRouter builds a router from a policyspec string ("round-robin",
// "least-loaded", "kv-headroom", "affinity"); "" defaults to round-robin.
func ParseRouter(spec string) (Router, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return &roundRobinRouter{}, nil
	}
	sp, err := policyspec.Parse(spec)
	if err != nil {
		return nil, err
	}
	f, ok := routers.Lookup(sp.Name)
	if !ok {
		return nil, routers.Unknown(sp.Name)
	}
	return f(sp)
}

// compositeBalancer implements serve.Balancer over the flattened cluster
// fleet: the router picks a node from aggregated node states, then the
// node's own balancer picks the device within it. With a single node the
// composite delegates directly to the node balancer, so a one-node cluster
// assigns byte-identically to serve.Run with that balancer.
type compositeBalancer struct {
	router Router
	// inners is one device balancer per node (independent state, so e.g. a
	// round-robin cursor is per node).
	inners []serve.Balancer
	// lo/hi are each node's device-index range in the flattened fleet;
	// devNode maps device index back to node.
	lo, hi  []int
	devNode []int
	names   []string
	regions []string
	// avoid marks nodes the cluster controller is draining (or holding cold
	// for the autoscaler): their devices are dropped from the placement view
	// even while still up, so evacuated sessions never hop to a sibling
	// device that is about to go down too. If every placeable device is
	// avoided, the marks are ignored — work must land somewhere.
	avoid []bool

	// Per-assignment scratch, reused to keep placement allocation-free on
	// the steady state.
	nodes     []NodeState
	classScr  [][]int
	positions [][]int
	sub       []serve.DeviceState
}

func newCompositeBalancer(nodes []NodeSpec, router Router, inner func() serve.Balancer, classes int) *compositeBalancer {
	b := &compositeBalancer{router: router}
	for i, n := range nodes {
		start := 0
		if i > 0 {
			start = b.hi[i-1]
		}
		b.lo = append(b.lo, start)
		b.hi = append(b.hi, start+n.Devices)
		b.inners = append(b.inners, inner())
		b.names = append(b.names, n.Name)
		b.regions = append(b.regions, n.Region)
		for d := 0; d < n.Devices; d++ {
			b.devNode = append(b.devNode, i)
		}
	}
	b.nodes = make([]NodeState, len(nodes))
	b.classScr = make([][]int, len(nodes))
	b.positions = make([][]int, len(nodes))
	b.avoid = make([]bool, len(nodes))
	for i := range b.classScr {
		b.classScr[i] = make([]int, classes)
	}
	return b
}

// Name implements serve.Balancer.
func (b *compositeBalancer) Name() string { return "cluster:" + b.router.Name() }

// Reset implements serve.Balancer.
func (b *compositeBalancer) Reset(int) {
	b.router.Reset(len(b.inners))
	for i, in := range b.inners {
		in.Reset(b.hi[i] - b.lo[i])
	}
}

// nodeStates aggregates the placement view into per-node states. The view
// may be the full fleet or a down-filtered subset (Index survives
// filtering); positions records where each node's devices sit in the view.
func (b *compositeBalancer) nodeStates(devices []serve.DeviceState) []NodeState {
	b.buildStates(devices, true)
	placeable := false
	for i := range b.nodes {
		if b.nodes[i].Devices > 0 {
			placeable = true
			break
		}
	}
	if !placeable {
		// Every viewed device sits on an avoided node; ignore the marks.
		b.buildStates(devices, false)
	}
	return b.nodes
}

func (b *compositeBalancer) buildStates(devices []serve.DeviceState, honorAvoid bool) {
	for i := range b.nodes {
		cs := b.classScr[i]
		for c := range cs {
			cs[c] = 0
		}
		b.nodes[i] = NodeState{
			Index: i, Name: b.names[i], Region: b.regions[i],
			TotalDevices: b.hi[i] - b.lo[i], ClassSessions: cs,
		}
		b.positions[i] = b.positions[i][:0]
	}
	for p := range devices {
		d := &devices[p]
		ni := b.devNode[d.Index]
		if honorAvoid && b.avoid[ni] {
			continue
		}
		n := &b.nodes[ni]
		if n.Devices == 0 || d.Free < n.Free {
			n.Free = d.Free
		}
		n.Devices++
		n.ActiveSessions += d.ActiveSessions
		n.ResidentKV += d.ResidentKV
		n.FreePages += d.FreePages
		n.CapacityPages += d.CapacityPages
		for c, k := range d.ClassSessions {
			n.ClassSessions[c] += k
		}
		b.positions[ni] = append(b.positions[ni], p)
	}
}

// Assign implements serve.Balancer.
func (b *compositeBalancer) Assign(now float64, class int, devices []serve.DeviceState) int {
	if len(b.inners) == 1 {
		// Single node: the node balancer IS the fleet balancer.
		return b.inners[0].Assign(now, class, devices)
	}
	nodes := b.nodeStates(devices)
	n := b.router.Route(now, class, nodes)
	if n < 0 || n >= len(nodes) || nodes[n].Devices == 0 {
		panic(fmt.Sprintf("cluster: router %q returned node %d (devices in view: %v)",
			b.router.Name(), n, len(devices)))
	}
	pos := b.positions[n]
	if len(pos) == len(devices) {
		// Whole view is this node (can happen when every other node is down).
		d := b.inners[n].Assign(now, class, devices)
		return pos[d]
	}
	sub := b.sub[:0]
	for _, p := range pos {
		sub = append(sub, devices[p])
	}
	b.sub = sub
	d := b.inners[n].Assign(now, class, sub)
	if d < 0 || d >= len(sub) {
		panic(fmt.Sprintf("cluster: node %d balancer returned device %d of %d", n, d, len(sub)))
	}
	return pos[d]
}
