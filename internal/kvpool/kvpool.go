// Package kvpool is the KV memory-pressure plane: it models one device's KV
// cache memory as a pool of fixed-size pages that concurrent video sessions
// allocate from as their caches grow. Under pressure, cold sessions' pages
// spill to the backing store (host DRAM over PCIe on servers, NVMe on edge
// devices) according to a pluggable eviction policy, and reload latency is
// charged through the internal/memsim DRAM/PCIe/NVMe models when the session
// becomes active again. Sessions whose working set cannot fit are refused at
// admission.
//
// The pool is deliberately single-threaded: internal/serve drives it from
// the serialised device loop, so every operation is deterministic for any
// worker count. Capacity <= 0 means "no pool" — callers must simply not
// construct one, which keeps the unpooled serving path byte-identical.
package kvpool

import (
	"cmp"
	"fmt"
	"slices"
)

// Mover prices page movement between device memory and the backing store, in
// seconds. Transfer (over the memsim models) is the standard implementation.
type Mover interface {
	// PageOut returns the time to write pages out of device memory.
	PageOut(pages int) float64
	// PageIn returns the time to read pages back into device memory.
	PageIn(pages int) float64
}

// Config sizes a device pool.
type Config struct {
	// CapacityPages is the pool size in pages; must be positive (callers
	// model "infinite capacity" by not constructing a pool at all).
	CapacityPages int
	// PageTokens is the page size in KV tokens.
	PageTokens int
	// Spill configures eviction; a nil Evict disables spilling, in which
	// case allocation simply fails when the pool is full (the caller queues
	// the session or drops the frame).
	Spill SpillConfig
	// Mover prices page movement; required when Spill.Evict is non-nil.
	Mover Mover
}

// Stats counts the pool's page traffic since the last Reset.
type Stats struct {
	// PagesIn / PagesOut count pages moved into / out of device memory.
	PagesIn, PagesOut int
	// PageInTime / PageOutTime are the summed movement times in seconds.
	PageInTime, PageOutTime float64
}

// session is one admitted session's page accounting.
type session struct {
	id       int
	tokens   int     // KV length in tokens
	resident int     // pages currently in device memory
	spilled  int     // pages currently in the backing store
	lastUse  float64 // time of the session's last activity
	admitSeq int     // admission order (FIFO eviction key)
}

// pages returns the session's total footprint in pages.
func (s *session) pages() int { return s.resident + s.spilled }

// Pool is one device's paged KV allocator. Not safe for concurrent use; the
// serving scheduler drives it from its single-threaded device loop.
type Pool struct {
	cfg       Config
	freePages int
	sessions  map[int]*session
	order     []*session // admission order, for deterministic victim scans
	admitSeq  int
	stats     Stats
	// victims is evictable's result buffer, reused across reclaims.
	victims []*session
}

// New builds a pool; the configuration must be valid (positive capacity and
// page size, and a Mover whenever spilling is enabled).
func New(cfg Config) *Pool {
	if cfg.CapacityPages <= 0 || cfg.PageTokens <= 0 {
		panic(fmt.Sprintf("kvpool: invalid config %+v", cfg))
	}
	if cfg.Spill.Evict != nil && cfg.Mover == nil {
		panic("kvpool: spilling enabled without a Mover")
	}
	p := &Pool{cfg: cfg}
	p.Reset()
	return p
}

// Reset clears all sessions and statistics, reusing the pool across runs.
func (p *Pool) Reset() {
	p.freePages = p.cfg.CapacityPages
	p.sessions = make(map[int]*session)
	p.order = p.order[:0]
	p.admitSeq = 0
	p.stats = Stats{}
}

// CapacityPages returns the pool size in pages.
func (p *Pool) CapacityPages() int { return p.cfg.CapacityPages }

// PageTokens returns the page size in tokens.
func (p *Pool) PageTokens() int { return p.cfg.PageTokens }

// FreePages returns the unallocated page count (spilled pages do not occupy
// device memory).
func (p *Pool) FreePages() int { return p.freePages }

// Stats returns the page-traffic counters.
func (p *Pool) Stats() Stats { return p.stats }

// pagesFor returns the page footprint of a KV length.
func (p *Pool) pagesFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + p.cfg.PageTokens - 1) / p.cfg.PageTokens
}

// Fits reports whether a session of the given KV length can ever be resident
// on this device — the admission-control reject test.
func (p *Pool) Fits(tokens int) bool { return p.pagesFor(tokens) <= p.cfg.CapacityPages }

// Admitted reports whether the session currently holds pages.
func (p *Pool) Admitted(id int) bool {
	_, ok := p.sessions[id]
	return ok
}

// evictable lists victim sessions (resident pages, not the requester) in
// eviction order: the configured policy's order with a final session-id
// tie-break, scanned over the deterministic admission-order slice. The
// result is the pool's reused buffer, valid until the next call.
func (p *Pool) evictable(requester int) []*session {
	out := p.victims[:0]
	for _, s := range p.order {
		if s.id != requester && s.resident > 0 {
			out = append(out, s)
		}
	}
	ev := p.cfg.Spill.Evict
	slices.SortStableFunc(out, func(a, b *session) int {
		if c := ev.Compare(victim(a), victim(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	p.victims = out
	return out
}

// reclaim frees at least need pages by spilling cold sessions' pages, in
// batches of at least Spill.BatchPages to amortise transfer setup. It
// returns the charged page-out time and whether enough pages were freed.
func (p *Pool) reclaim(requester, need int) (float64, bool) {
	if p.freePages >= need {
		return 0, true
	}
	if p.cfg.Spill.Evict == nil {
		return 0, false
	}
	want := need - p.freePages
	if b := p.cfg.Spill.BatchPages; want < b {
		// Spill a full batch while we are here; capped below by what exists.
		want = b
	}
	spilled := 0
	for _, v := range p.evictable(requester) {
		if spilled >= want {
			break
		}
		take := v.resident
		if rem := want - spilled; take > rem {
			take = rem
		}
		v.resident -= take
		v.spilled += take
		spilled += take
	}
	if spilled > 0 {
		p.freePages += spilled
		t := p.cfg.Mover.PageOut(spilled)
		p.stats.PagesOut += spilled
		p.stats.PageOutTime += t
		return t, p.freePages >= need
	}
	return 0, p.freePages >= need
}

// Admit allocates pages for a new session of the given KV length. It returns
// the page-out time charged for any spilling done to make room, and reports
// failure when the pool cannot free enough pages (spilling disabled and the
// pool is full) — the caller queues the session. Sessions whose footprint
// exceeds the whole pool must be rejected beforehand via Fits.
func (p *Pool) Admit(id, tokens int, now float64) (spill float64, ok bool) {
	if p.Admitted(id) {
		panic(fmt.Sprintf("kvpool: session %d admitted twice", id))
	}
	need := p.pagesFor(tokens)
	if need > p.cfg.CapacityPages {
		return 0, false
	}
	spill, ok = p.reclaim(id, need)
	if !ok {
		return 0, false
	}
	p.freePages -= need
	s := &session{id: id, tokens: tokens, resident: need, lastUse: now, admitSeq: p.admitSeq}
	p.admitSeq++
	p.sessions[id] = s
	p.order = append(p.order, s)
	return spill, true
}

// Touch makes the session fully resident before service, reloading any
// spilled pages (evicting colder sessions as needed). It returns the charged
// page-in and page-out times. Touch panics on unadmitted sessions.
func (p *Pool) Touch(id int, now float64) (pageIn, pageOut float64) {
	s := p.mustGet(id)
	s.lastUse = now
	if s.spilled == 0 {
		return 0, 0
	}
	out, ok := p.reclaim(id, s.spilled)
	if !ok {
		// Unreachable: the session fit at admission and every other session
		// is evictable, but stay safe against future invariants.
		return 0, out
	}
	p.freePages -= s.spilled
	in := p.cfg.Mover.PageIn(s.spilled)
	p.stats.PagesIn += s.spilled
	p.stats.PageInTime += in
	s.resident += s.spilled
	s.spilled = 0
	return in, out
}

// Grow extends the session's KV by delta tokens, allocating pages as the
// length crosses page boundaries. It returns the page-out time charged for
// spilling and reports failure — without touching the session — when the
// new footprint cannot fit (the caller drops the frame). Grow panics on
// unadmitted sessions.
func (p *Pool) Grow(id, delta int, now float64) (spill float64, ok bool) {
	s := p.mustGet(id)
	if delta <= 0 {
		s.lastUse = now
		return 0, true
	}
	if p.pagesFor(s.tokens+delta) > p.cfg.CapacityPages {
		return 0, false
	}
	if need := p.pagesFor(s.tokens+delta) - s.pages(); need > 0 {
		spill, ok = p.reclaim(id, need)
		if !ok {
			return 0, false
		}
		p.freePages -= need
		s.resident += need
	}
	s.lastUse = now
	s.tokens += delta
	return spill, true
}

// Release frees the session's pages (resident and spilled) when it departs.
// Releasing an unadmitted session is a no-op, so callers need not track
// whether a queued session was ever admitted.
func (p *Pool) Release(id int) {
	s, ok := p.sessions[id]
	if !ok {
		return
	}
	p.freePages += s.resident
	delete(p.sessions, id)
	for i, o := range p.order {
		if o == s {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

func (p *Pool) mustGet(id int) *session {
	s, ok := p.sessions[id]
	if !ok {
		panic(fmt.Sprintf("kvpool: session %d not admitted", id))
	}
	return s
}
