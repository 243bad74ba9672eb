package masort

import (
	"context"
	"errors"
	"time"

	"github.com/memadapt/masort/internal/memarb"
)

// ErrPoolSaturated is returned by Sort, Join, GroupBy and Merge when a
// Budget that does not admit every operator cannot admit this one (under
// RejectWhenFull, or for an operator whose input is a held step of the same
// Budget): granting even the per-operator floor would break the floor
// guarantee of the operators already running.
var ErrPoolSaturated = errors.New("masort: pool saturated, operator not admitted")

// AdmissionPolicy selects what a Budget does with an operator that arrives
// when one more per-operator floor does not fit in what reservations have
// not taken.
type AdmissionPolicy int

// The values are memarb's: WithAdmissionPolicy hands a policy to the
// arbiter as it is.
const (
	// AdmitAll (the default) admits the operator at once and raises the
	// target to a floor per operator (Resize never sets it below that; it
	// stays raised until the owner sets it again). The owner stands behind
	// the target, so a suspended operator waits for its full need however
	// long the owner takes to restore it.
	AdmitAll AdmissionPolicy = iota
	// QueueWhenFull queues the operator until enough operators finish, the
	// reservations drain or the target grows; the wait is cancelable
	// through the operator's context. No owner stands behind the target, so
	// every wait of a running operator is bounded by the target.
	QueueWhenFull
	// RejectWhenFull is QueueWhenFull that fails the operator at once with
	// ErrPoolSaturated instead of queueing it.
	RejectWhenFull
)

// BudgetOption configures NewBudget.
type BudgetOption func(*memarb.Config)

// WithAdmissionPolicy sets the Budget's admission policy (default
// AdmitAll).
func WithAdmissionPolicy(a AdmissionPolicy) BudgetOption {
	return func(c *memarb.Config) { c.Admission = memarb.Admission(a) }
}

// minFloor is every operator's guaranteed minimum in pages: two merge
// inputs plus an output, the least any step needs to progress. An operator
// whose configuration implies a larger minimum (a wide Join, say) still
// progresses: the engine treats its own minimum as a lower bound on the
// entitlement.
const minFloor = 3

// Budget is the memory the operators running on it share, in logical
// pages: the owner's handle on the paper's buffer-manager reservation
// protocol, and the wall-clock counterpart of the simulator's buffer
// manager (internal/bufmgr.SharedPool). The owner sets the target and reads
// what the operators hold against it. The operators' side — acquiring pages
// up to their shares, yielding them back when the target shrinks, waiting
// for it to return — is the engine's own, each operator through a
// memarb.Handle of its own.
//
// Every operator and held-step iterator running on a Budget (WithBudget) is
// entitled to an equal share of whatever the application's reservations
// have not taken, never less than the 3-page floor, with the
// integer-division remainder assigned to the longest-running operators (so
// entitlements are deterministic and the target is fully divided). Each
// counts only its own pages, so together they never hold more than the
// target. Every registration, completion, reservation and resize shifts the
// entitlements; operators observe the change at their next adaptation point
// (page-granular) and give pages back as fast as their phase permits.
//
// The application competes through Reserve and Release — the "competing
// memory requests" of the paper's protocol. Reservations are granted FIFO,
// all-at-once, capped so the running operators' floors stay coverable, and
// block until pages have actually been yielded back.
//
// The admission policy (WithAdmissionPolicy) says who stands behind the
// target: under AdmitAll, the default, an owner, so every operator is
// admitted at once; under QueueWhenFull or RejectWhenFull nobody, so an
// operator is admitted only when one more floor fits. How a Budget treated
// an operator is that operator's Result.Pool. All methods are safe for
// concurrent use.
type Budget struct {
	arb *memarb.Arbiter
}

// NewBudget creates a budget of the given number of pages, raised to the
// 3-page floor if below it.
func NewBudget(pages int, opts ...BudgetOption) *Budget {
	cfg := memarb.Config{Total: pages, Floor: minFloor}
	for _, fn := range opts {
		if fn != nil {
			fn(&cfg)
		}
	}
	return &Budget{arb: memarb.New(cfg)}
}

// Resize sets the target to pages and wakes the operators. It never breaks
// the running operators' floors or the pages granted or promised to
// reservations — the requested target is raised to that minimum, and to
// one floor at least, so negative or zero values mean "shrink to minimum" —
// and a shrink takes effect as operators yield down to their reduced
// entitlements.
func (b *Budget) Resize(pages int) { b.arb.Resize(pages) }

// Grow adds n pages to the target. Non-positive n is ignored — use Shrink
// to reduce the target.
func (b *Budget) Grow(n int) {
	if n > 0 {
		b.arb.Grow(n)
	}
}

// Shrink removes n pages from the target (floored as Resize is).
// Non-positive n is ignored — use Grow to raise the target.
func (b *Budget) Shrink(n int) {
	if n > 0 {
		b.arb.Grow(-n)
	}
}

// Target returns the budget's total in pages: what its operators and
// reservations are entitled to, together.
func (b *Budget) Target() int { return b.arb.Snapshot().Total }

// Granted returns the pages the operators running on the budget currently
// hold, together.
func (b *Budget) Granted() int {
	s := b.arb.Snapshot()
	return s.Total - s.Free - s.Reserved
}

// Pressure returns how many pages the operators and reservations hold
// above the target.
func (b *Budget) Pressure() int { return max(0, -b.arb.Snapshot().Free) }

// Ops returns the number of operators currently running on the budget.
func (b *Budget) Ops() int { return len(b.arb.Snapshot().Targets) }

// RejectedReservations counts the Reserve calls that returned 0 for lack of
// headroom since the budget was created.
func (b *Budget) RejectedReservations() int { return b.arb.Snapshot().RejectedReservations }

// Reserve takes up to want pages away from the operators on behalf of the
// application — the competing memory request of the paper's reservation
// protocol. The demand is capped at the budget's current headroom (the
// running operators keep their floors, earlier reservations keep their
// promises); if no headroom exists the reservation is rejected and Reserve
// returns 0 immediately. Otherwise Reserve blocks until the capped amount
// has been granted in full — operators shed pages at their next adaptation
// points — or ctx is canceled, and returns the pages actually held, which
// the caller must eventually give back with Release.
func (b *Budget) Reserve(ctx context.Context, want int) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return b.arb.Reserve(ctx, want)
}

// Release returns n reserved pages to the budget. Releasing more than is
// currently reserved is clamped.
func (b *Budget) Release(n int) { b.arb.Release(n) }

// PoolStats reports one operator's interaction with its Budget: how memory
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

	// Waits counts blocking waits on the budget (entitlement below what the
	// operator needed — suspensions, stalls while siblings or reservations
	// held the pages); WaitTime is the total time spent in them.
	Waits    int
	WaitTime time.Duration
}
