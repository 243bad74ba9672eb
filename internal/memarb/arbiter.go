package memarb

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// ErrSaturated is returned by Register when admission does not queue and one
// more floor does not fit.
var ErrSaturated = errors.New("memarb: arbiter saturated, operator not admitted")

// Config fixes an Arbiter at construction.
type Config struct {
	Total int // pages; raised to Floor if below it
	Floor int // per-operator guaranteed minimum

	// ClampWaits bounds every WaitTarget by what the current total could ever
	// entitle the waiter to (see Handle.WaitTarget). A shared pool sets it: no
	// owner stands behind an operator's entitlement, so waiting for more than
	// the pool holds would never end. A private budget leaves it unset and
	// sleeps until its owner restores the target.
	ClampWaits bool

	// OnGrant and OnWait, when set, observe every page grant and every
	// completed blocking wait of an operator (op is the id it registered
	// with). They are called outside the lock, on the operator's goroutine.
	OnGrant func(op uint64, pages int)
	OnWait  func(op uint64, d time.Duration)
}

// Arbiter divides Total pages among the operators registered with it and
// the reservations made against it, by Policy. It is the real engine's only
// arbiter: a masort.Budget is an Arbiter with one permanently registered
// operator, a masort.Pool is one with many, and the workers of a parallel
// phase hold sub-handles of their operator's Handle (Handle.Divide) — all
// under this one mutex, woken by this one condition variable. All methods
// are safe for concurrent use.
type Arbiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	pol  Policy
	cfg  Config

	// Conservation: Σ granted + reserved + free == total at all times;
	// pending is a promise against future free pages, not a holding. free
	// may go negative transiently after a shrinking Resize — the deficit
	// is repaid as operators yield down to their new entitlements.
	free     int
	reserved int
	pending  int // pages promised to queued reservations

	// gen counts state changes. A handle remembers the generation its last
	// WaitChange returned at (Handle.seen), so "wait for a change" means a
	// change since it last looked, not since the wait began: one that lands
	// between a failed Acquire and the wait is not slept through.
	gen uint64

	ops   []*Handle // registration order — oldest first
	queue []*reservation

	rejectedOps int
	rejectedRes int
}

type reservation struct {
	want    int
	granted bool
}

// New creates an arbiter with no operators and no reservations.
func New(cfg Config) *Arbiter {
	cfg.Total = max(cfg.Total, cfg.Floor)
	a := &Arbiter{pol: Policy{Total: cfg.Total, Floor: cfg.Floor}, cfg: cfg, free: cfg.Total}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// Floor returns the per-operator guaranteed minimum.
func (a *Arbiter) Floor() int { return a.pol.Floor }

// Snapshot is a consistent view of an arbiter's accounts.
type Snapshot struct {
	Total, Free, Reserved, Pending int
	Queued                         int   // reservations waiting for pages
	Targets                        []int // entitlement per operator, oldest first

	RejectedOps, RejectedReservations int
}

// Snapshot reads the accounts under the lock.
func (a *Arbiter) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{
		Total: a.pol.Total, Free: a.free, Reserved: a.reserved, Pending: a.pending,
		Queued: len(a.queue), RejectedOps: a.rejectedOps, RejectedReservations: a.rejectedRes,
		Targets: make([]int, 0, len(a.ops)),
	}
	for _, h := range a.ops {
		s.Targets = append(s.Targets, h.entitled(false))
	}
	return s
}

// changed follows every state change: queued reservations are granted if
// they now fit, and every waiter re-evaluates. Callers hold a.mu.
func (a *Arbiter) changed() {
	// Reservations are satisfied FIFO, each all-at-once, from the free pool.
	for len(a.queue) > 0 && a.free >= a.queue[0].want {
		r := a.queue[0]
		a.queue = a.queue[1:]
		a.free -= r.want
		a.reserved += r.want
		a.pending -= r.want
		r.granted = true
	}
	a.gen++
	a.cond.Broadcast()
}

// wake broadcasts under the lock. Used by the context-aware waits: taking
// the mutex orders the broadcast against a waiter that is between its
// cancellation check and cond.Wait, so a cancel can never be missed.
func (a *Arbiter) wake() {
	a.mu.Lock()
	a.cond.Broadcast()
	a.mu.Unlock()
}

// Resize sets the total. Growing takes effect immediately; shrinking never
// breaks the registered operators' floors or the pages granted or promised
// to reservations — the requested total is raised to that minimum — and
// takes effect as operators yield down to their reduced entitlements.
// Resize returns the total actually set.
func (a *Arbiter) Resize(total int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resize(total)
}

// Grow changes the total by delta pages (negative shrinks), clamped like
// Resize, and returns the total actually set.
func (a *Arbiter) Grow(delta int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resize(a.pol.Total + delta)
}

func (a *Arbiter) resize(total int) int {
	total = max(total, len(a.ops)*a.pol.Floor+a.reserved+a.pending, a.pol.Floor)
	a.free += total - a.pol.Total
	a.pol.Total = total
	a.changed()
	return total
}

// Reserve takes up to want pages away from the operators — the competing
// memory request of the paper's reservation protocol. The demand is capped
// at the current headroom (the registered operators keep their floors,
// earlier reservations keep their promises); with no headroom the
// reservation is rejected and Reserve returns 0 immediately. Otherwise it
// blocks until the capped amount has been granted in full — operators shed
// pages at their next adaptation points — or ctx is canceled, and returns
// the pages held, which the caller gives back with Release.
func (a *Arbiter) Reserve(ctx context.Context, want int) (int, error) {
	stop := context.AfterFunc(ctx, a.wake)
	defer stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	want = min(want, a.pol.Headroom(len(a.ops), a.reserved, a.pending))
	if want <= 0 {
		a.rejectedRes++
		return 0, nil
	}
	r := &reservation{want: want}
	a.queue = append(a.queue, r)
	a.pending += want
	a.changed() // entitlements just dropped: operators start yielding
	for !r.granted {
		if err := ctx.Err(); err != nil {
			// Still queued: take the promise back, later reservations may fit.
			a.queue = slices.DeleteFunc(a.queue, func(q *reservation) bool { return q == r })
			a.pending -= want
			a.changed()
			return 0, err
		}
		a.cond.Wait()
	}
	return want, nil
}

// Release returns n reserved pages. Releasing more than is reserved is
// clamped.
func (a *Arbiter) Release(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n = min(n, a.reserved); n > 0 {
		a.reserved -= n
		a.free += n
		a.changed()
	}
}

// Register admits a new operator, waiting (queue) or failing with
// ErrSaturated (!queue) while one more floor does not fit in what
// reservations have not taken — an admitted operator's floor must be
// genuinely acquirable, not promised away. The wait is cancelable through
// ctx. op is an id of the caller's choosing, handed back to the observer
// hooks.
func (a *Arbiter) Register(ctx context.Context, op uint64, queue bool) (*Handle, error) {
	start := time.Now()
	stop := context.AfterFunc(ctx, a.wake)
	defer stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for !a.pol.CanAdmitWith(len(a.ops), a.reserved, a.pending) {
		if !queue {
			a.rejectedOps++
			return nil, ErrSaturated
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a.cond.Wait()
	}
	h := &Handle{a: a, op: op}
	h.stats.AdmissionWait = time.Since(start)
	a.ops = append(a.ops, h)
	a.changed() // every sibling's entitlement just shrank
	h.seen = a.gen
	return h, nil
}

// Stats is one operator's account with its arbiter.
type Stats struct {
	// AdmissionWait is how long Register queued the operator.
	AdmissionWait time.Duration

	// Grants counts Acquire calls that obtained pages; PagesGranted totals
	// the pages obtained (re-acquisitions after shedding count again).
	Grants       int
	PagesGranted int

	// MaxGranted is the high-water mark of pages held at once.
	MaxGranted int

	// Waits counts blocking waits; WaitTime is the total time spent in them.
	Waits    int
	WaitTime time.Duration
}

// Handle is one party's view of an Arbiter, and the real engine's only
// implementation of core.Broker and core.ContextBroker: an operator
// (Register), or one worker of an operator's crew (Divide). A worker's pages
// are held in its operator's name too — the operator's Granted is its
// crew's combined holding — and its grants and waits go on the operator's
// account.
type Handle struct {
	a       *Arbiter
	op      uint64
	granted int
	seen    uint64    // a.gen at creation or when the last WaitChange returned
	stats   Stats     // an operator's account; a worker's stays zero
	crew    *division // non-nil on a worker's sub-handle
}

// division is one Divide of an operator's entitlement among a crew.
type division struct {
	parent  *Handle
	minNeed int       // pages a worker needs to be active
	live    []*Handle // workers still running, in rank order
	peak    int       // high-water mark of parent.granted since Divide
}

// Divide returns sub-handles for a crew of workers sharing this handle's
// entitlement by CrewShare: a worker's Target is its share of the handle's
// live target, recomputed under the arbiter's lock on every call, so a
// resize, a reservation or a sibling operator's churn reaches every worker
// at its next page boundary. Workers whose share is zero are parked — their
// waits sleep on the arbiter's condition like any other — until the target
// grows or a lower-ranked sibling leaves. Each worker must Leave when done.
func (h *Handle) Divide(workers, minNeed int) []*Handle {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	d := &division{parent: h, minNeed: minNeed, live: make([]*Handle, workers)}
	for i := range d.live {
		d.live[i] = &Handle{a: h.a, crew: d, seen: h.a.gen}
	}
	return slices.Clone(d.live)
}

// parent returns the handle whose entitlement h divides, nil for an operator.
func (h *Handle) parent() *Handle {
	if h.crew == nil {
		return nil
	}
	return h.crew.parent
}

// operator returns the registered handle h acts for (h itself unless h is a
// worker's sub-handle).
func (h *Handle) operator() *Handle {
	for h.crew != nil {
		h = h.crew.parent
	}
	return h
}

// entitled computes the handle's entitlement — or, with atTotal, what it
// would be were the whole arbiter its operator's: the most a clamped wait
// may hold out for. Callers hold a.mu.
func (h *Handle) entitled(atTotal bool) int {
	a := h.a
	if d := h.crew; d != nil {
		return CrewShare(d.parent.entitled(atTotal), slices.Index(d.live, h), len(d.live), d.minNeed)
	}
	if atTotal {
		return a.pol.Total
	}
	rank := 0
	if len(a.ops) > 1 { // a lone operator's share does not depend on its rank
		rank = slices.Index(a.ops, h)
	}
	return a.pol.ShareAt(rank, len(a.ops), a.reserved, a.pending)
}

// hold moves n pages (negative: back) between the free pool and h, booking
// them to every handle up to the operator. Callers hold a.mu.
func (h *Handle) hold(n int) {
	for x := h; x != nil; x = x.parent() {
		x.granted += n
	}
	h.a.free -= n
}

// Granted returns the pages the handle holds.
func (h *Handle) Granted() int {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return h.granted
}

// Target returns the handle's current entitlement.
func (h *Handle) Target() int {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return h.entitled(false)
}

// Pressure returns max(0, Granted-Target).
func (h *Handle) Pressure() int {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return max(0, h.granted-h.entitled(false))
}

// Acquire grants up to n additional pages, bounded by the entitlement — the
// worker's own and its operator's — and by the free pool.
func (h *Handle) Acquire(n int) int {
	a := h.a
	a.mu.Lock()
	for x := h; x != nil; x = x.parent() {
		n = min(n, x.entitled(false)-x.granted)
	}
	n = max(min(n, a.free), 0)
	if n > 0 {
		h.hold(n)
		op := h.operator()
		op.stats.Grants++
		op.stats.PagesGranted += n
		op.stats.MaxGranted = max(op.stats.MaxGranted, op.granted)
		if h.crew != nil {
			h.crew.peak = max(h.crew.peak, op.granted)
		}
	}
	a.mu.Unlock()
	if n > 0 && a.cfg.OnGrant != nil {
		a.cfg.OnGrant(h.operator().op, n)
	}
	return n
}

// Yield returns n pages, waking queued reservations and whoever may grow
// into them.
func (h *Handle) Yield(n int) {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	if n = min(n, h.granted); n > 0 {
		h.hold(-n)
		h.a.changed()
	}
}

// Leave retires the handle: whatever it still holds goes back (the engine
// yields everything on success and on abort; this is belt-and-braces) and
// the survivors' shares grow — an operator's siblings re-equalize, a
// worker's parked siblings move down a rank. That is what guarantees
// progress when the target sustains only part of a crew: the rank-0 worker
// always has a target of at least the floor, finishes, and hands its slot
// down. Leaving twice is harmless.
func (h *Handle) Leave() {
	a := h.a
	a.mu.Lock()
	defer a.mu.Unlock()
	h.hold(-h.granted)
	set := &a.ops
	if h.crew != nil {
		set = &h.crew.live
	}
	*set = slices.DeleteFunc(*set, func(x *Handle) bool { return x == h })
	a.changed()
}

// Stats returns the operator's account; for a worker's sub-handle, only
// MaxGranted is set: the high-water mark of its whole crew's holding.
func (h *Handle) Stats() Stats {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	if h.crew != nil {
		return Stats{MaxGranted: h.crew.peak}
	}
	return h.stats
}

// A wait's page count below zero means a wait for a change of state instead:
// one since the handle last looked (anyChange), or one from now on.
const (
	anyChange  = -1
	nextChange = -2
)

// WaitTarget blocks until the entitlement reaches n. Under ClampWaits n is
// bounded, afresh on every wakeup, by the entitlement the handle would have
// if the whole total were its operator's (never below one page, so a parked
// worker still sleeps): the wait terminates once reservations drain and
// siblings finish, even if a Resize took the total below n meanwhile.
func (h *Handle) WaitTarget(n int) { _ = h.wait(context.Background(), max(n, 0)) }

// WaitChange blocks until the arbitration state has changed since the handle
// was created or last returned from WaitChange — at once if it already has;
// every WaitChange in progress on the handle returns on the same change. A
// caller that acquires, gets nothing and waits therefore cannot lose the
// wakeup of a change that lands in between (a sibling yielding or leaving),
// even if no other change ever follows; the price is a return, now and then,
// for a change it had already acted on. This is the engine's wait, for the
// one goroutine that works through the handle.
func (h *Handle) WaitChange() { _ = h.wait(context.Background(), anyChange) }

// WaitTargetCtx is WaitTarget interrupted by ctx, whose error it returns.
func (h *Handle) WaitTargetCtx(ctx context.Context, n int) error { return h.wait(ctx, max(n, 0)) }

// WaitChangeCtx is WaitChange interrupted by ctx, whose error it returns.
func (h *Handle) WaitChangeCtx(ctx context.Context) error { return h.wait(ctx, anyChange) }

// WaitNextChange blocks until the state changes after the call, or ctx is
// done. It is the onlooker's wait: it keeps no memory on the handle, so any
// number of goroutines may use it beside the one the handle works for without
// taking a change away from that one's WaitChange.
func (h *Handle) WaitNextChange(ctx context.Context) error { return h.wait(ctx, nextChange) }

// wait is the one blocking wait. A wait that is satisfied on arrival is not
// a wait: it is neither counted nor observed.
func (h *Handle) wait(ctx context.Context, n int) error {
	a := h.a
	stop := context.AfterFunc(ctx, a.wake)
	defer stop()
	a.mu.Lock()
	from := h.seen
	if n == nextChange {
		from = a.gen
	}
	done := func() bool {
		if n < 0 {
			return a.gen != from
		}
		need := n
		if a.cfg.ClampWaits {
			need = min(n, max(h.entitled(true), 1))
		}
		return h.entitled(false) >= need
	}
	var waited time.Duration
	var err error
	if !done() {
		if err = ctx.Err(); err == nil {
			// Counted on the way in: a sleeper shows in Stats while it sleeps.
			st, start := &h.operator().stats, time.Now()
			st.Waits++
			for err == nil && !done() {
				a.cond.Wait()
				err = ctx.Err()
			}
			waited = time.Since(start)
			st.WaitTime += waited
		}
	}
	if n == anyChange {
		h.seen = a.gen
	}
	a.mu.Unlock()
	if waited > 0 && a.cfg.OnWait != nil {
		a.cfg.OnWait(h.operator().op, waited)
	}
	return err
}
