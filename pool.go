package masort

import (
	"context"
	"errors"
	"time"

	"github.com/memadapt/masort/internal/memarb"
	"github.com/memadapt/masort/trace"
)

// ErrPoolSaturated is returned by Sort, Join, GroupBy and Merge when a
// Pool configured with RejectWhenFull cannot admit the operator: granting
// even the per-operator floor would break the floor guarantee of the
// operators already running.
var ErrPoolSaturated = errors.New("masort: pool saturated, operator not admitted")

// AdmissionPolicy selects what happens when a new operator arrives at a
// Pool that cannot cover one more per-operator floor.
type AdmissionPolicy int

const (
	// QueueWhenFull (the default) queues the operator until enough
	// operators finish (or the pool grows); the wait is cancelable through
	// the operator's context.
	QueueWhenFull AdmissionPolicy = iota
	// RejectWhenFull fails the operator immediately with ErrPoolSaturated.
	RejectWhenFull
)

// PoolOption configures NewPool.
type PoolOption func(*Pool)

// WithPoolFloor sets the per-operator guaranteed minimum in pages
// (default 3 — two merge inputs plus an output, the least any operator
// needs to progress; values below 3 are raised to 3). Operators whose
// configuration implies a larger minimum (a wide Join, say) still progress
// — the engine treats its own minimum as a lower bound on the entitlement
// — but choose a floor covering it to keep reservations from promising
// away pages the operator will effectively use anyway.
func WithPoolFloor(pages int) PoolOption {
	return func(p *Pool) {
		if pages < minFloor {
			pages = minFloor
		}
		p.floor = pages
	}
}

// WithAdmissionPolicy sets the Pool's admission behavior (default
// QueueWhenFull).
func WithAdmissionPolicy(a AdmissionPolicy) PoolOption {
	return func(p *Pool) { p.admission = a }
}

// WithPoolTracer attaches a tracer to the pool: admissions (with queue
// wait), rejections, page grants, blocking arbitration waits and resizes
// are emitted as they happen, attributed to the operator involved. The
// tracer is fixed at construction; share the operators' trace.Metrics here
// to see arbitration and adaptation in one registry.
func WithPoolTracer(t Tracer) PoolOption {
	return func(p *Pool) { p.tr = t }
}

const minFloor = 3

// Pool is a process-wide shared memory budget: the wall-clock counterpart
// of the simulator's buffer manager (internal/bufmgr.SharedPool), and the
// multiprogramming setting the paper's introduction motivates — many
// adaptive operators competing for one fluctuating region of buffer pages.
//
// Operators attach with WithPool(p); while they run, the pool arbitrates
// its Total() pages among them by equal share: each of N operators is
// entitled to 1/N of whatever the application's reservations have not
// taken, never less than the per-operator floor, with the integer-division
// remainder assigned to the longest-running operators (so entitlements are
// deterministic and the pool is fully divided). Every registration,
// completion, reservation and resize shifts the entitlements; operators
// observe the change at their next adaptation point exactly as with a
// resized Budget, and give pages back as fast as their phase permits.
//
// The application competes through Reserve and Release — the "competing
// memory requests" of the paper's protocol. Reservations are granted FIFO,
// all-at-once, capped so the running operators' floors stay coverable, and
// block until pages have actually been yielded back.
//
// Admission control guards the floor guarantee: an operator is admitted
// only when one more floor fits (see AdmissionPolicy). A Pool must not be
// nil; the zero value is not usable — construct with NewPool. All methods
// are safe for concurrent use.
type Pool struct {
	arb       *memarb.Arbiter
	floor     int
	admission AdmissionPolicy
	tr        Tracer // fixed at construction; emits happen outside the arbiter's lock
}

// NewPool creates a pool of total pages. The total must cover at least one
// per-operator floor; smaller values are raised to it.
func NewPool(total int, opts ...PoolOption) *Pool {
	p := &Pool{floor: minFloor}
	for _, fn := range opts {
		if fn != nil {
			fn(p)
		}
	}
	cfg := memarb.Config{Total: total, Floor: p.floor, ClampWaits: true}
	if p.tr != nil {
		cfg.OnGrant = func(op uint64, pages int) {
			emitSafe(p.tr, trace.Event{Kind: trace.KindPoolGrant, Time: time.Now(), Op: op, Pages: pages}, nil)
		}
		cfg.OnWait = func(op uint64, d time.Duration) {
			emitSafe(p.tr, trace.Event{Kind: trace.KindPoolWait, Time: time.Now(), Op: op, Dur: d}, nil)
		}
	}
	p.arb = memarb.New(cfg)
	return p
}

// Total returns the pool size in pages.
func (p *Pool) Total() int { return p.arb.Snapshot().Total }

// Floor returns the per-operator guaranteed minimum.
func (p *Pool) Floor() int { return p.floor }

// Ops returns the number of operators currently admitted.
func (p *Pool) Ops() int { return len(p.arb.Snapshot().Targets) }

// Reserved returns the pages currently held by application reservations.
func (p *Pool) Reserved() int { return p.arb.Snapshot().Reserved }

// RejectedOps and RejectedReservations count admission failures
// (RejectWhenFull) and zero-grant reservations since the pool was created.
func (p *Pool) RejectedOps() int { return p.arb.Snapshot().RejectedOps }

// RejectedReservations counts Reserve calls that returned 0 for lack of
// headroom.
func (p *Pool) RejectedReservations() int { return p.arb.Snapshot().RejectedReservations }

// Resize changes the pool total. Growing takes effect immediately; the new
// pages join the free pool and entitlements rise. Shrinking never breaks
// the admitted operators' floors or the pages already granted to
// reservations — the requested total is raised to that minimum if needed —
// and takes effect as operators yield down to their reduced entitlements.
// Resize returns the total actually set.
func (p *Pool) Resize(total int) int {
	set := p.arb.Resize(total)
	if p.tr != nil {
		emitSafe(p.tr, trace.Event{Kind: trace.KindPoolResize, Time: time.Now(), Pages: set}, nil)
	}
	return set
}

// Reserve takes up to want pages away from the pool on behalf of the
// application — the competing memory request of the paper's reservation
// protocol. The demand is capped at the pool's current headroom (the
// admitted operators keep their floors, earlier reservations keep their
// promises); if no headroom exists the reservation is rejected and Reserve
// returns 0 immediately. Otherwise Reserve blocks until the capped amount
// has been granted in full — operators shed pages at their next adaptation
// points — or ctx is canceled, and returns the pages actually held, which
// the caller must eventually give back with Release.
func (p *Pool) Reserve(ctx context.Context, want int) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return p.arb.Reserve(ctx, want)
}

// Release returns n reserved pages to the pool. Releasing more than is
// currently reserved is clamped.
func (p *Pool) Release(n int) { p.arb.Release(n) }

// admit registers a new operator with the pool's arbiter, waiting
// (QueueWhenFull) or failing (RejectWhenFull) while one more floor does not
// fit in what application reservations have not taken. The handle is the
// operator's core.Broker, so the engine adapts to pool arbitration exactly
// as it adapts to a resized Budget; the operator detaches with Leave. op is
// the operator's trace id (0 when untraced), attributed to the pool's
// events.
func (p *Pool) admit(ctx context.Context, op uint64) (*memarb.Handle, error) {
	h, err := p.arb.Register(ctx, op, p.admission == QueueWhenFull)
	saturated := errors.Is(err, memarb.ErrSaturated)
	if saturated {
		err = ErrPoolSaturated
	}
	if p.tr != nil {
		switch {
		case err == nil:
			emitSafe(p.tr, trace.Event{Kind: trace.KindPoolAdmit, Time: time.Now(),
				Op: op, Dur: h.Stats().AdmissionWait}, nil)
		case saturated:
			emitSafe(p.tr, trace.Event{Kind: trace.KindPoolReject, Time: time.Now(),
				Op: op, Err: err.Error()}, nil)
		}
	}
	return h, err
}

// PoolStats reports one operator's interaction with its Pool: how memory
// arbitration treated it, complementing the algorithmic adaptation counts
// in Stats (splits, combines, suspensions).
type PoolStats struct {
	// AdmissionWait is how long the operator was queued before admission.
	AdmissionWait time.Duration

	// Grants counts Acquire calls that obtained pages; PagesGranted totals
	// the pages obtained over the operator's lifetime (re-acquisitions
	// after shedding count again).
	Grants       int
	PagesGranted int

	// MaxGranted is the high-water mark of pages held at once.
	MaxGranted int

	// Waits counts blocking waits on the pool (entitlement below what the
	// operator needed — suspensions, empty-pool stalls); WaitTime is the
	// total time spent in them.
	Waits    int
	WaitTime time.Duration
}
