package serve

import (
	"fmt"

	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
)

// AutoCapacity, as KVConfig.Capacity, derives each device's KV budget from
// its hardware spec (memory minus model weights and workspace).
const AutoCapacity = -1

// DefaultPageTokens is the KV page size when KVConfig leaves it unset: 256
// tokens — 32 MiB/page for Llama-3 8B at BF16, coarse enough that page
// bookkeeping stays cheap, fine enough that a 2 FPS stream crosses a page
// boundary only every ~13 s.
const DefaultPageTokens = 256

// KVConfig configures the device KV memory-pressure plane (internal/kvpool):
// a paged per-device KV budget with spill-to-host/NVMe and memory-aware
// admission control. The zero value disables the plane entirely — infinite
// capacity, no paging, no admission control — and Run reduces exactly to the
// unpooled simulation (the golden tests pin that path byte-for-byte).
type KVConfig struct {
	// Capacity is each device's KV budget in bytes: 0 disables the plane,
	// AutoCapacity derives the budget from the device spec
	// (hwsim.DeviceSpec.KVBudgetBytes), any positive value is explicit.
	Capacity float64
	// PageTokens is the page size in KV tokens (DefaultPageTokens when 0).
	PageTokens int
	// Spill configures eviction of cold sessions' pages to host/NVMe
	// (kvpool.ParseSpill). With spilling disabled, a full device queues new
	// sessions and drops frames whose KV growth cannot be allocated.
	Spill kvpool.SpillConfig
}

func (c KVConfig) enabled() bool { return c.Capacity != 0 }

// MemoryMetrics aggregates the KV memory-pressure plane across the fleet;
// all fields are zero when the plane is disabled.
type MemoryMetrics struct {
	// CapacityPages and PageTokens describe each device's pool.
	CapacityPages, PageTokens int
	// PagesIn / PagesOut count pages moved between device memory and the
	// backing store, fleet-wide; the *Time fields are the seconds charged.
	PagesIn, PagesOut       int
	PageInTime, PageOutTime float64
	// SessionsQueued / SessionsRejected count admission-control outcomes.
	SessionsQueued, SessionsRejected int
	// PeakResidentKV is the largest per-device resident-KV high-water mark.
	PeakResidentKV int
}

// admission states of a session on the memory-pressure plane.
const (
	sessIdle     = iota // not yet started
	sessAdmitted        // holds pages; frames are served
	sessQueued          // waiting for pages; frames drop meanwhile
	sessRejected        // working set exceeds device capacity; never served
	sessGone            // departed
)

// kvPlane is the per-run state of the memory-pressure plane: one pool per
// device, per-session admission state, and per-device FIFO admission queues.
// A nil *kvPlane disables the plane.
type kvPlane struct {
	pools  []*kvpool.Pool
	state  []int
	queues [][]int
}

// PoolShape resolves the configured budget against a device and policy: the
// per-device pool size in pages, the page size in tokens and bytes. It
// errors when the (possibly auto-derived) capacity cannot hold even one
// page — CLIs call it to validate flags up front; Run panics on the same
// condition.
func (c KVConfig) PoolShape(dev hwsim.DeviceSpec, pol hwsim.PolicyModel) (capacityPages, pageTokens int, pageBytes float64, err error) {
	llm := hwsim.Llama3_8B()
	capBytes := c.Capacity
	if capBytes == AutoCapacity {
		capBytes = dev.KVBudgetBytes(llm)
	}
	pageTokens = c.PageTokens
	if pageTokens == 0 {
		pageTokens = DefaultPageTokens
	}
	pageBytes = pol.KVBytesPerToken(llm) * float64(pageTokens)
	capacityPages = int(capBytes / pageBytes)
	if capacityPages < 1 {
		return 0, 0, 0, fmt.Errorf("serve: KV capacity %.4g B holds no %d-token page (%.4g B/page)",
			capBytes, pageTokens, pageBytes)
	}
	return capacityPages, pageTokens, pageBytes, nil
}

// newKVPlane builds the plane for a run, or returns nil when disabled; the
// config has already passed validate.
func newKVPlane(cfg Config, nDev, nSessions int) *kvPlane {
	if !cfg.KV.enabled() {
		return nil
	}
	p := &kvPlane{
		pools:  make([]*kvpool.Pool, nDev),
		state:  make([]int, nSessions),
		queues: make([][]int, nDev),
	}
	// Homogeneous fleets share one pool shape; with DevSpecs each device's
	// budget, page bytes and spill pricing derive from its own spec.
	build := func(dev hwsim.DeviceSpec) kvpool.Config {
		pages, pageTokens, pageBytes, err := cfg.KV.PoolShape(dev, cfg.Pol)
		if err != nil {
			panic(err.Error())
		}
		return kvpool.Config{
			CapacityPages: pages, PageTokens: pageTokens, Spill: cfg.KV.Spill,
			Mover: kvpool.Transfer{
				Link: dev.Link, SSD: dev.OffloadSSD,
				Host: dev.HostMem, PageBytes: pageBytes,
			},
		}
	}
	if len(cfg.DevSpecs) == 0 {
		pcfg := build(cfg.Dev)
		for d := range p.pools {
			p.pools[d] = kvpool.New(pcfg)
		}
	} else {
		for d := range p.pools {
			p.pools[d] = kvpool.New(build(cfg.DevSpecs[d]))
		}
	}
	return p
}

// memory folds the fleet's pool statistics into the aggregate, after the
// per-device metrics have been filled in.
func (p *kvPlane) memory(devMetrics []DeviceMetrics) MemoryMetrics {
	m := MemoryMetrics{
		CapacityPages: p.pools[0].CapacityPages(),
		PageTokens:    p.pools[0].PageTokens(),
	}
	for d := range devMetrics {
		dm := &devMetrics[d]
		m.PagesIn += dm.PagesIn
		m.PagesOut += dm.PagesOut
		m.PageInTime += dm.PageInTime
		m.PageOutTime += dm.PageOutTime
		m.SessionsQueued += dm.SessionsQueued
		m.SessionsRejected += dm.SessionsRejected
		if dm.PeakResidentKV > m.PeakResidentKV {
			m.PeakResidentKV = dm.PeakResidentKV
		}
	}
	return m
}
