package memarb

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// ErrSaturated is returned by Register when the arbiter does not admit
// every operator and one more floor does not fit.
var ErrSaturated = errors.New("memarb: arbiter saturated, operator not admitted")

// Admission is what an arbiter's Register does with an operator whose floor
// does not fit in what reservations have not taken.
type Admission int

const (
	// AdmitAll admits every operator at once, raising the total to cover
	// the new floor (as Resize keeps the floors): an owner stands behind the
	// total, so a wait holds out until the owner restores the target.
	AdmitAll Admission = iota
	// QueueWhenFull waits until the floor fits. No owner stands behind the
	// total, so every WaitTarget is bounded by what the current total could
	// ever entitle the waiter to (see Handle.WaitTarget): waiting for more
	// than the arbiter holds would never end.
	QueueWhenFull
	// RejectWhenFull is QueueWhenFull that fails with ErrSaturated instead
	// of waiting.
	RejectWhenFull
)

// Config fixes an Arbiter at construction.
type Config struct {
	Total     int // pages; raised to Floor if below it
	Floor     int // per-operator guaranteed minimum
	Admission Admission
}

// Arbiter divides Total pages among the operators registered with it and
// the reservations made against it, by Policy. It is the real engine's only
// arbiter: a masort.Budget is one Arbiter, every operator and held-step
// iterator running on it a registered operator with a Handle of its own —
// all under this one mutex, woken by this one condition variable. All methods are safe for concurrent use.
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

// Snapshot is a consistent view of an arbiter's accounts.
type Snapshot struct {
	Total, Free, Reserved, Pending int
	Queued                         int   // reservations waiting for pages
	Targets                        []int // entitlement per operator, oldest first

	RejectedReservations int
}

// Snapshot reads the accounts under the lock.
func (a *Arbiter) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{
		Total: a.pol.Total, Free: a.free, Reserved: a.reserved, Pending: a.pending,
		Queued: len(a.queue), RejectedReservations: a.rejectedRes,
		Targets: make([]int, 0, len(a.ops)),
	}
	for _, h := range a.ops {
		s.Targets = append(s.Targets, h.entitled())
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

// wake broadcasts under the lock. Used by the waits on a context: taking
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

// Register admits a new operator. Unless the arbiter admits all, it waits
// (QueueWhenFull and queue) or fails with ErrSaturated while one more floor
// does not fit in what reservations have not taken — an admitted operator's
// floor must be genuinely acquirable, not promised away; the wait is
// cancelable through ctx. AdmitAll admits at once, raising the total to
// cover the new floor if it must.
func (a *Arbiter) Register(ctx context.Context, queue bool) (*Handle, error) {
	start := time.Now()
	stop := context.AfterFunc(ctx, a.wake)
	defer stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.cfg.Admission != AdmitAll && !a.pol.CanAdmitWith(len(a.ops), a.reserved, a.pending) {
		if !queue || a.cfg.Admission == RejectWhenFull {
			return nil, ErrSaturated
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a.cond.Wait()
	}
	h := &Handle{a: a}
	h.stats.AdmissionWait = time.Since(start)
	a.ops = append(a.ops, h)
	a.resize(a.pol.Total) // keeps the floors; every sibling's entitlement just shrank
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

// Handle is one operator's view of an Arbiter, and the real engine's only
// implementation of core.Broker — the operator's side of the reservation
// protocol, where masort.Budget is the owner's.
type Handle struct {
	a       *Arbiter
	granted int
	seen    uint64 // a.gen at creation or when the last WaitChange returned
	stats   Stats
}

// entitled computes the handle's entitlement. Callers hold a.mu.
func (h *Handle) entitled() int {
	a := h.a
	rank := 0
	if len(a.ops) > 1 { // a lone operator's share does not depend on its rank
		rank = slices.Index(a.ops, h)
	}
	return a.pol.ShareAt(rank, len(a.ops), a.reserved, a.pending)
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
	return h.entitled()
}

// Pressure returns max(0, Granted-Target).
func (h *Handle) Pressure() int {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return max(0, h.granted-h.entitled())
}

// Acquire grants up to n additional pages, bounded by the entitlement and
// by the free pool.
func (h *Handle) Acquire(n int) int {
	a := h.a
	a.mu.Lock()
	defer a.mu.Unlock()
	n = max(min(n, h.entitled()-h.granted, a.free), 0)
	if n > 0 {
		h.granted += n
		a.free -= n
		h.stats.Grants++
		h.stats.PagesGranted += n
		h.stats.MaxGranted = max(h.stats.MaxGranted, h.granted)
	}
	return n
}

// Yield returns n pages, waking queued reservations and whoever may grow
// into them.
func (h *Handle) Yield(n int) {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	if n = min(n, h.granted); n > 0 {
		h.granted -= n
		h.a.free += n
		h.a.changed()
	}
}

// Leave retires the handle: whatever it still holds goes back (the engine
// yields everything on success and on abort; this is belt-and-braces) and
// the survivors' shares grow. Leaving twice is harmless.
func (h *Handle) Leave() {
	a := h.a
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free += h.granted
	h.granted = 0
	a.ops = slices.DeleteFunc(a.ops, func(x *Handle) bool { return x == h })
	a.changed()
}

// Stats returns the operator's account.
func (h *Handle) Stats() Stats {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return h.stats
}

// anyChange, as a wait's page count, makes it a wait for a change of state
// since the handle last looked instead.
const anyChange = -1

// WaitTarget blocks until the entitlement reaches n or ctx is done, whose
// error it then returns. Unless the arbiter admits all, n is bounded,
// afresh on every wakeup, by the total: the wait terminates once
// reservations drain and siblings finish, even if a Resize took the total
// below n meanwhile.
func (h *Handle) WaitTarget(ctx context.Context, n int) error { return h.wait(ctx, max(n, 0)) }

// WaitChange blocks until the arbitration state has changed since the handle
// was created or last returned from WaitChange — at once if it already has —
// or ctx is done, whose error it then returns; every WaitChange in progress
// on the handle returns on the same change. A caller that acquires, gets
// nothing and waits therefore cannot lose the wakeup of a change that lands
// in between (a sibling yielding or leaving), even if no other change ever
// follows; the price is a return, now and then, for a change it had already
// acted on.
func (h *Handle) WaitChange(ctx context.Context) error { return h.wait(ctx, anyChange) }

// wait is the one blocking wait. A wait that is satisfied on arrival is not
// a wait: it is not counted.
func (h *Handle) wait(ctx context.Context, n int) error {
	a := h.a
	stop := context.AfterFunc(ctx, a.wake)
	defer stop()
	a.mu.Lock()
	from := h.seen
	done := func() bool {
		if n == anyChange {
			return a.gen != from
		}
		need := n
		if a.cfg.Admission != AdmitAll {
			need = min(n, a.pol.Total)
		}
		return h.entitled() >= need
	}
	var err error
	if !done() {
		if err = ctx.Err(); err == nil {
			// Counted on the way in: a sleeper shows in Stats while it sleeps.
			st, start := &h.stats, time.Now()
			st.Waits++
			for err == nil && !done() {
				a.cond.Wait()
				err = ctx.Err()
			}
			st.WaitTime += time.Since(start)
		}
	}
	if n == anyChange {
		h.seen = a.gen
	}
	a.mu.Unlock()
	return err
}
