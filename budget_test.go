package masort

import (
	"context"
	"testing"

	"github.com/memadapt/masort/internal/memarb"
)

func TestBudgetDefaultFloor(t *testing.T) {
	b := NewBudget(10)
	if b.Floor() != 3 {
		t.Fatalf("Floor() = %d, want 3", b.Floor())
	}
	b.Shrink(100)
	if b.Target() != 3 {
		t.Fatalf("Target after huge Shrink = %d, want floor 3", b.Target())
	}
}

func TestBudgetCustomFloor(t *testing.T) {
	b := NewBudgetWithFloor(20, 8)
	if b.Floor() != 8 {
		t.Fatalf("Floor() = %d, want 8", b.Floor())
	}
	b.Resize(1)
	if b.Target() != 8 {
		t.Fatalf("Target after Resize below floor = %d, want 8", b.Target())
	}
	b.Shrink(100)
	if b.Target() != 8 {
		t.Fatalf("Target after Shrink = %d, want 8", b.Target())
	}
}

func TestBudgetFloorValidation(t *testing.T) {
	// Floors below the 3-page operator minimum are raised.
	b := NewBudgetWithFloor(10, -5)
	if b.Floor() != 3 {
		t.Fatalf("Floor() = %d, want 3", b.Floor())
	}
	// Initial pages below the floor are raised to it.
	b = NewBudgetWithFloor(2, 6)
	if b.Target() != 6 {
		t.Fatalf("Target() = %d, want 6", b.Target())
	}
}

func TestBudgetInputValidation(t *testing.T) {
	b := NewBudget(10)
	b.Grow(-4)
	if b.Target() != 10 {
		t.Fatalf("Target after Grow(-4) = %d, want 10 (ignored)", b.Target())
	}
	b.Shrink(-4) // must NOT grow the target
	if b.Target() != 10 {
		t.Fatalf("Target after Shrink(-4) = %d, want 10 (ignored)", b.Target())
	}
	b.Resize(-7)
	if b.Target() != 3 {
		t.Fatalf("Target after Resize(-7) = %d, want floor 3", b.Target())
	}
}

// register registers an operator on the budget, as every operator that
// runs on it does.
func register(t testing.TB, b *Budget) *memarb.Handle {
	t.Helper()
	h, err := b.arb.Register(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestBudgetHotPathAllocFree: Target, Acquire, Pressure and Yield run once
// per page of every sort, through the operator's handle. On an arbiter of
// one operator with no reservations they must not allocate (and, a share of
// one being the whole, the handle does not search for its rank either: see
// memarb.Handle's entitled).
func TestBudgetHotPathAllocFree(t *testing.T) {
	b := NewBudget(64)
	h := register(t, b)
	allocs := testing.AllocsPerRun(1000, func() {
		if h.Target() != 64 || h.Acquire(8) != 8 || h.Pressure() != 0 {
			t.Fatal("a budget's operator is not entitled to all of it")
		}
		h.Yield(8)
	})
	if allocs != 0 {
		t.Fatalf("Target/Acquire/Pressure/Yield allocate %.1f times per page", allocs)
	}
}
