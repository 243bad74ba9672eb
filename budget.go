package masort

import "github.com/memadapt/masort/internal/memarb"

// Budget arbitrates memory between a running sort (or join) and the rest of
// the application, in logical pages. It is the owner's handle on the paper's
// buffer-manager reservation protocol: the owner sets the target and reads
// what the operators hold against it. The operators' side — acquiring pages
// up to their shares, yielding them back when the target shrinks, waiting
// for it to return — is the engine's own, each operator through a
// memarb.Handle of its own.
//
// Grow, Shrink and Resize are safe to call from any goroutine while a sort
// is running; changes take effect at the sort's next adaptation point
// (page-granular). The target never drops below the floor — by default 3
// pages (two merge inputs plus an output, the minimum any step needs to
// progress), raisable with NewBudgetWithFloor when the workload's real
// minimum is higher (a wide Join's final step, a shared Pool's
// per-operator floor).
//
// A Budget is the same memarb.Arbiter a Pool is, and shares its target the
// same way: every operator and held-step iterator running on it is an
// operator of its arbiter, entitled to an equal share of at least the
// floor, and counts only its own pages, so together they never hold more
// than the target. What differs from a Pool is who stands behind the
// target: a Budget has an owner. So it admits every operator at once,
// raising the target to floor × operators when it must (as Resize never
// sets it below that; it stays raised until the owner sets it again), and
// a suspended operator waits for its full need
// however long the owner takes to restore it, where a Pool queues or
// refuses an operator that does not fit and bounds a wait by its total.
type Budget struct {
	arb *memarb.Arbiter
}

// NewBudget creates a budget of the given number of pages with the default
// 3-page floor.
func NewBudget(pages int) *Budget {
	return NewBudgetWithFloor(pages, minFloor)
}

// NewBudgetWithFloor creates a budget of the given number of pages whose
// target never drops below floor. Floors below 3 are raised to 3 (an
// operator cannot progress on less), and pages below the floor are raised
// to it. Use a floor matching the workload's true minimum — e.g. the floor
// of a Pool the budget must coexist with, or a Join's final-step fan-in —
// so that Shrink and Resize cannot strand the operator below it.
func NewBudgetWithFloor(pages, floor int) *Budget {
	return &Budget{arb: memarb.New(memarb.Config{Total: pages, Floor: max(floor, minFloor)})}
}

// Floor returns the guaranteed minimum below which the target never drops.
func (b *Budget) Floor() int { return b.arb.Floor() }

// Resize sets the target to pages (raised to a floor for each operator
// running on it, and to one floor at least — so negative or zero values
// mean "shrink to minimum") and wakes the operators.
func (b *Budget) Resize(pages int) { b.arb.Resize(pages) }

// Grow adds n pages to the target. Non-positive n is ignored — use Shrink
// to reduce the target.
func (b *Budget) Grow(n int) {
	if n > 0 {
		b.arb.Grow(n)
	}
}

// Shrink removes n pages from the target (floored). Non-positive n is
// ignored — use Grow to raise the target.
func (b *Budget) Shrink(n int) {
	if n > 0 {
		b.arb.Grow(-n)
	}
}

// Target returns the pages the operators running on the budget are
// currently entitled to, together: its total.
func (b *Budget) Target() int { return b.arb.Snapshot().Total }

// Granted returns the pages the operators running on the budget currently
// hold, together: what is not free (a Budget takes no reservations).
func (b *Budget) Granted() int {
	s := b.arb.Snapshot()
	return s.Total - s.Free
}

// Pressure returns how many pages the operators hold above the target.
func (b *Budget) Pressure() int { return max(0, -b.arb.Snapshot().Free) }
