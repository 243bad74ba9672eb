package masort

import (
	"context"

	"github.com/memadapt/masort/internal/memarb"
)

// Budget arbitrates memory between a running sort (or join) and the rest of
// the application, in logical pages. It implements the operator side of the
// paper's buffer-manager reservation protocol: the operator acquires pages
// up to the current target and yields them back when the target shrinks.
//
// Grow, Shrink and Resize are safe to call from any goroutine while a sort
// is running; changes take effect at the sort's next adaptation point
// (page-granular). The target never drops below the floor — by default 3
// pages (two merge inputs plus an output, the minimum any step needs to
// progress), raisable with NewBudgetWithFloor when the workload's real
// minimum is higher (a wide Join's final step, a shared Pool's
// per-operator floor).
//
// A Budget is a private arbiter of one: the same memarb.Arbiter a Pool
// shares between many operators, holding a single permanently registered
// operator whose handle every WithBudget user acquires through. The one
// thing that differs is who stands behind the target: a Budget has an owner
// who will restore it, so a suspended operator waits for its full need
// however long that takes, where a Pool bounds the wait by its total.
type Budget struct {
	arb *memarb.Arbiter
	h   *memarb.Handle
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
	arb := memarb.New(memarb.Config{Total: pages, Floor: max(floor, minFloor)})
	// The first operator of a fresh arbiter always fits: total ≥ floor.
	h, _ := arb.Register(context.Background(), 0, false)
	return &Budget{arb: arb, h: h}
}

// Floor returns the guaranteed minimum below which the target never drops.
func (b *Budget) Floor() int { return b.arb.Floor() }

// Resize sets the target to pages (raised to the floor if below it — so
// negative or zero values mean "shrink to minimum") and wakes the operator.
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

// Target returns the pages the operator is currently entitled to.
func (b *Budget) Target() int { return b.h.Target() }

// Granted returns the pages the operator currently holds.
func (b *Budget) Granted() int { return b.h.Granted() }

// Acquire grants the operator up to n additional pages within the target.
func (b *Budget) Acquire(n int) int { return b.h.Acquire(n) }

// Yield returns n pages.
func (b *Budget) Yield(n int) { b.h.Yield(n) }

// Pressure returns how many pages the operator holds above the target.
func (b *Budget) Pressure() int { return b.h.Pressure() }

// WaitTarget blocks until the target is at least n.
func (b *Budget) WaitTarget(n int) { b.h.WaitTarget(n) }

// WaitChange blocks until the budget changes: the next change after the
// call, for every caller waiting.
func (b *Budget) WaitChange() { _ = b.h.WaitNextChange(context.Background()) }

// WaitTargetCtx blocks until the target is at least n or ctx is canceled,
// returning ctx's error in the latter case. It makes suspension waits
// cancelable: a suspended sort whose context is canceled returns promptly
// instead of sleeping until the budget happens to be restored.
func (b *Budget) WaitTargetCtx(ctx context.Context, n int) error {
	return b.h.WaitTargetCtx(ctx, n)
}

// WaitChangeCtx blocks until the budget changes or ctx is canceled,
// returning ctx's error in the latter case.
func (b *Budget) WaitChangeCtx(ctx context.Context) error {
	return b.h.WaitNextChange(ctx)
}
