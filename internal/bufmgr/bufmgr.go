// Package bufmgr implements the paper's buffer manager with a reservation
// mechanism (Section 4.2): a pool of M pages shared between the registered
// adaptive operators (external sorts or sort-merge joins) and a stream of
// competing memory requests issued on behalf of higher-priority
// transactions. The paper's system model has exactly one operator; that is
// the pool with one registered handle, not a second implementation.
//
// Competing requests are granted all-at-once in FIFO order. The operators
// own the rest of the pool; when requests arrive every operator's *target*
// drops and it must yield pages (how quickly it can is exactly the
// split-phase / merge-phase delay the paper measures). When requests leave,
// the targets rise again and the operators may re-acquire pages.
package bufmgr

import (
	"fmt"

	"github.com/memadapt/masort/internal/memarb"
	"github.com/memadapt/masort/internal/sim"
)

// DelayRecord captures how long one competing request waited for its full
// grant, attributed to the operator phase at the request's arrival.
type DelayRecord struct {
	Phase string
	Pages int
	Delay sim.Time
	At    sim.Time
}

type pending struct {
	want   int
	flag   *sim.Flag
	arrive sim.Time
	phase  string
}

// SharedPool is the buffer pool: any number of adaptive operators running
// concurrently — the multiprogramming scenario that motivates
// memory-adaptive sorting in the first place (§1: suspending affected sorts
// reduces the number of active transactions and under-utilizes the system)
// — against the competing-request streams. All methods must be called from
// simulation processes or event callbacks (single-threaded by construction).
//
// Policy: every registered operator is entitled to an equal share of
// whatever the competing requests have not taken, floored at the operator
// minimum (memarb.Policy.Share — the arithmetic is shared with the real
// engine's masort.Pool). Registration, completion and request arrivals all
// shift the shares; operators observe the change through their handles.
type SharedPool struct {
	s       *sim.Sim
	total   int
	floor   int // per-operator guaranteed minimum
	free    int
	reqHeld int
	pending int

	ops     []*OpHandle // registration order (deterministic reclaim)
	queue   []*pending
	changed *sim.Signal

	// Delays holds one record per satisfied competing request.
	Delays []DelayRecord
	// Rejected counts requests that could not be admitted because the
	// operator floors left no headroom.
	Rejected int
}

// NewShared creates a pool of total pages; every registered operator is
// guaranteed to keep at least floorPerOp pages (see DESIGN.md: MinSortPages).
func NewShared(s *sim.Sim, total, floorPerOp int) *SharedPool {
	if total <= 0 || floorPerOp < 0 || floorPerOp > total {
		panic(fmt.Sprintf("bufmgr: invalid pool (total=%d floor=%d)", total, floorPerOp))
	}
	return &SharedPool{
		s: s, total: total, floor: floorPerOp, free: total,
		changed: sim.NewSignal(s),
	}
}

// Total returns the pool size M in pages.
func (sp *SharedPool) Total() int { return sp.total }

// ReqGranted returns the pages currently held by competing requests.
func (sp *SharedPool) ReqGranted() int { return sp.reqHeld }

// Ops returns the number of registered operators.
func (sp *SharedPool) Ops() int { return len(sp.ops) }

// policy is the arbitration arithmetic shared with masort.Pool.
func (sp *SharedPool) policy() memarb.Policy {
	return memarb.Policy{Total: sp.total, Floor: sp.floor}
}

func (sp *SharedPool) check() {
	held, bad := sp.reqHeld, sp.free < 0 || sp.reqHeld < 0
	for _, h := range sp.ops {
		held += h.granted
		bad = bad || h.granted < 0
	}
	if bad || held+sp.free != sp.total {
		panic(fmt.Sprintf("bufmgr: conservation violated (ops+req=%d req=%d free=%d total=%d)",
			held, sp.reqHeld, sp.free, sp.total))
	}
}

// phase labels a request arriving now: the operator's phase when exactly
// one is registered (the paper's model, whose delays Figure 9 and Table 8
// break down by phase), "shared" otherwise.
func (sp *SharedPool) phase() string {
	if len(sp.ops) == 1 && sp.ops[0].PhaseFn != nil {
		return sp.ops[0].PhaseFn()
	}
	return "shared"
}

// Register admits a new adaptive operator; every share shrinks. The
// operator must Unregister when done. Registration fails if admitting one
// more operator would leave someone below the floor.
func (sp *SharedPool) Register() (*OpHandle, error) {
	if !sp.policy().CanAdmit(len(sp.ops)) {
		return nil, fmt.Errorf("bufmgr: admitting operator %d would break the %d-page floor",
			len(sp.ops)+1, sp.floor)
	}
	h := &OpHandle{sp: sp}
	sp.ops = append(sp.ops, h)
	sp.changed.Broadcast()
	return h, nil
}

// Unregister removes a finished operator, which must hold no pages.
func (sp *SharedPool) Unregister(h *OpHandle) {
	if h.granted != 0 {
		panic(fmt.Sprintf("bufmgr: unregistering operator still holding %d pages", h.granted))
	}
	for i, o := range sp.ops {
		if o == h {
			sp.ops = append(sp.ops[:i], sp.ops[i+1:]...)
			break
		}
	}
	sp.tryGrant()
	sp.changed.Broadcast()
}

// Request asks for want pages on behalf of a competing transaction, blocking
// the calling process until the full amount is granted. It returns the
// number of pages actually granted: the demand is capped by the operator
// floors and by demand already promised to earlier requests; the result is 0
// if no headroom exists (the request is rejected, matching the observation
// that granting it could never be satisfied).
func (sp *SharedPool) Request(p *sim.Proc, want int) int {
	want = min(want, sp.policy().Headroom(len(sp.ops), sp.reqHeld, sp.pending))
	if want <= 0 {
		sp.Rejected++
		return 0
	}
	pd := &pending{want: want, flag: sim.NewFlag(sp.s), arrive: sp.s.Now(), phase: sp.phase()}
	sp.queue = append(sp.queue, pd)
	sp.pending += want
	sp.tryGrant()
	// Clean buffers can be taken away instantly, in registration order; the
	// Yield inside a reclaimer re-runs tryGrant.
	for _, h := range sp.ops {
		if pd.flag.IsSet() {
			break
		}
		if h.reclaim != nil && sp.free < pd.want {
			h.reclaim(pd.want - sp.free)
		}
	}
	// The operators' targets just dropped: let them react immediately.
	sp.changed.Broadcast()
	pd.flag.Wait(p)
	return want
}

// ReleaseRequest returns pages held by a competing request to the pool.
func (sp *SharedPool) ReleaseRequest(n int) {
	if n <= 0 {
		return
	}
	if n > sp.reqHeld {
		panic(fmt.Sprintf("bufmgr: releasing %d request pages but only %d granted", n, sp.reqHeld))
	}
	sp.reqHeld -= n
	sp.free += n
	sp.tryGrant()
	sp.changed.Broadcast()
}

// tryGrant satisfies queued requests FIFO, each all-at-once.
func (sp *SharedPool) tryGrant() {
	for len(sp.queue) > 0 && sp.free >= sp.queue[0].want {
		pd := sp.queue[0]
		sp.queue = sp.queue[1:]
		sp.free -= pd.want
		sp.reqHeld += pd.want
		sp.pending -= pd.want
		sp.Delays = append(sp.Delays, DelayRecord{
			Phase: pd.phase, Pages: pd.want,
			Delay: sp.s.Now() - pd.arrive, At: sp.s.Now(),
		})
		pd.flag.Set()
	}
	sp.check()
}

// OpHandle is one operator's view of the pool. Its method set is
// core.Broker's, so simenv hands it to the sort as its memory broker.
type OpHandle struct {
	sp      *SharedPool
	granted int
	proc    *sim.Proc
	reclaim func(need int) int

	// PhaseFn labels request delays with the operator's current phase while
	// it is the only one registered (see SharedPool.phase).
	PhaseFn func() string
}

// Bind attaches the operator's process (for waiting).
func (h *OpHandle) Bind(p *sim.Proc) { h.proc = p }

// SetReclaimer registers the operator's instant clean-buffer reclaimer,
// invoked synchronously at request arrival to let the operator release
// clean (unpinned) buffers immediately — the paper's observation that
// merge-phase input buffers can be given up the instant they are asked for
// (merge delays < 1 ms). The callback should Yield what it can free
// instantly and return the amount.
func (h *OpHandle) SetReclaimer(fn func(need int) int) { h.reclaim = fn }

// Granted returns the pages this operator holds.
func (h *OpHandle) Granted() int { return h.granted }

// Target returns the number of pages the operator is currently entitled to:
// an equal share of the pool minus everything granted or promised to
// competing requests, never below the floor.
func (h *OpHandle) Target() int {
	return h.sp.policy().Share(len(h.sp.ops), h.sp.reqHeld, h.sp.pending)
}

// Pressure returns how many pages the operator holds above its target, i.e.
// how many it is being asked to give back right now.
func (h *OpHandle) Pressure() int { return max(0, h.granted-h.Target()) }

// Acquire grants the operator up to n additional pages, limited by its
// target and by the free pool. Returns the number actually granted.
func (h *OpHandle) Acquire(n int) int {
	n = min(n, h.Target()-h.granted, h.sp.free)
	if n <= 0 {
		return 0
	}
	h.granted += n
	h.sp.free -= n
	h.sp.check()
	return n
}

// Yield gives n operator pages back to the pool, waking any queued requests
// that can now be granted.
func (h *OpHandle) Yield(n int) {
	if n <= 0 {
		return
	}
	if n > h.granted {
		panic(fmt.Sprintf("bufmgr: yielding %d pages but operator holds %d", n, h.granted))
	}
	h.granted -= n
	h.sp.free += n
	h.sp.tryGrant()
	h.sp.changed.Broadcast() // siblings may grow into the freed share
}

// WaitTarget parks the operator until its target is at least n (capped at
// the pool size, so the wait always terminates when it is alone and the
// requests drain).
func (h *OpHandle) WaitTarget(n int) {
	n = min(n, h.sp.total)
	for h.Target() < n {
		h.sp.changed.Wait(h.proc)
	}
}

// WaitChange parks the operator until its entitlement may have changed (a
// request or a sibling arrived, departed or yielded).
func (h *OpHandle) WaitChange() { h.sp.changed.Wait(h.proc) }
