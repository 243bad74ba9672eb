package masort

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// requireCanceled asserts the error chain exposes both sentinels callers
// may reasonably match on.
func requireCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("canceled operation returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled in chain", err)
	}
}

// requireNoLeaks asserts a canceled operation left nothing behind: no live
// runs in the store and no pages still granted from the budget.
func requireNoLeaks(t *testing.T, store *MemStore, budget *Budget) {
	t.Helper()
	if n := store.Live(); n != 0 {
		t.Fatalf("canceled operation leaked %d runs", n)
	}
	if g := budget.Granted(); g != 0 {
		t.Fatalf("canceled operation still holds %d granted pages", g)
	}
}

func TestSortCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	store := NewMemStore()
	budget := NewBudget(16)
	_, err := Sort(ctx, NewSliceIterator(randomRecords(1000, 1, 0)),
		WithStore(store), WithBudget(budget))
	requireCanceled(t, err)
	requireNoLeaks(t, store, budget)
}

// TestSortCanceledMidSplit cancels from inside the input stream, so the
// cancellation lands while the split phase is consuming pages.
func TestSortCanceledMidSplit(t *testing.T) {
	for _, m := range []Method{ReplacementSelection, Quicksort} {
		t.Run([]string{"repl", "quick"}[m], func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			store := NewMemStore()
			budget := NewBudget(8)
			recs := randomRecords(50_000, 2, 0)
			n := 0
			input := FuncIterator(func() (Record, bool, error) {
				if n == 20_000 {
					cancel()
				}
				if n >= len(recs) {
					return Record{}, false, nil
				}
				r := recs[n]
				n++
				return r, true, nil
			})
			_, err := Sort(ctx, input,
				WithMethod(m), WithPageRecords(32), WithStore(store), WithBudget(budget))
			requireCanceled(t, err)
			requireNoLeaks(t, store, budget)
		})
	}
}

// TestSortCanceledMidMerge cancels when the merge phase starts, for every
// adaptation strategy.
func TestSortCanceledMidMerge(t *testing.T) {
	for _, ad := range []Adaptation{DynamicSplitting, MRUPaging, Suspension} {
		t.Run([]string{"split", "page", "susp"}[ad], func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			store := NewMemStore()
			budget := NewBudget(8)
			_, err := Sort(ctx, NewSliceIterator(randomRecords(50_000, 3, 0)),
				WithAdaptation(ad), WithPageRecords(32), WithStore(store), WithBudget(budget),
				WithEvents(func(ev Event) {
					if ev.Kind == EvPhase && ev.Phase == "merge" {
						cancel()
					}
				}))
			requireCanceled(t, err)
			requireNoLeaks(t, store, budget)
		})
	}
}

// TestSortCanceledDuringSuspension parks the sort in a suspension wait (the
// budget is slashed to the floor mid-merge, below any step's requirement)
// and then cancels from another goroutine: the wait must wake promptly
// instead of sleeping until the budget is restored.
func TestSortCanceledDuringSuspension(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := NewMemStore()
	budget := NewBudget(16)
	errCh := make(chan error, 1)
	var suspended atomic.Bool
	var squeeze, cancelOnce sync.Once
	// A step only suspends when the target drops below its requirement
	// MID-step (a step planned at a small target just uses fan-in 2), so
	// the squeezer oscillates the budget until a suspension is observed,
	// then leaves the target at the floor so the sort stays parked.
	squeezer := func() {
		for i := 0; i < 1000 && !suspended.Load(); i++ {
			budget.Resize(3)
			time.Sleep(2 * time.Millisecond)
			if suspended.Load() {
				break
			}
			budget.Resize(16)
			time.Sleep(time.Millisecond)
		}
	}
	go func() {
		_, err := Sort(ctx, NewSliceIterator(randomRecords(80_000, 4, 0)),
			WithAdaptation(Suspension), WithPageRecords(32),
			WithStore(store), WithBudget(budget),
			WithEvents(func(ev Event) {
				switch {
				case ev.Kind == EvPhase && ev.Phase == "merge":
					squeeze.Do(func() { go squeezer() })
				case ev.Kind == EvSuspend:
					suspended.Store(true)
					// Cancel synchronously, on the sorting goroutine, before
					// the suspension wait begins: whether the wait then blocks
					// or the budget races back, the sort must observe the
					// cancellation at its next adaptation point. (A delayed
					// cancel is flaky: a fast resume can finish the sort
					// before the cancel lands.)
					cancelOnce.Do(cancel)
				}
			}))
		errCh <- err
	}()
	select {
	case err := <-errCh:
		requireCanceled(t, err)
	case <-time.After(10 * time.Second):
		t.Fatal("suspended sort did not observe cancellation")
	}
	requireNoLeaks(t, store, budget)
}

func TestJoinCanceledMidMerge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := NewMemStore()
	budget := NewBudget(8)
	rng := rand.New(rand.NewPCG(5, 5))
	l := make([]Record, 30_000)
	r := make([]Record, 30_000)
	for i := range l {
		l[i] = Record{Key: rng.Uint64() % 4096}
		r[i] = Record{Key: rng.Uint64() % 4096}
	}
	_, err := Join(ctx, NewSliceIterator(l), NewSliceIterator(r),
		WithPageRecords(32), WithStore(store), WithBudget(budget),
		WithEvents(func(ev Event) {
			if ev.Kind == EvPhase && ev.Phase == "merge" {
				cancel()
			}
		}))
	requireCanceled(t, err)
	requireNoLeaks(t, store, budget)
}

func TestMergeCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	store := NewMemStore()
	budget := NewBudget(8)
	var ids []RunID
	for i := 0; i < 6; i++ {
		id, _, err := WriteRun(store, NewSliceIterator(sortedRecords(500, uint64(i), 3)), 32)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	_, err := Merge(ctx, store, ids, WithPageRecords(32), WithBudget(budget))
	requireCanceled(t, err)
	// Merge consumes its inputs even on abort, so nothing may remain.
	requireNoLeaks(t, store, budget)

	// The 1- and 0-run fast paths must honor cancellation identically.
	id, _, err := WriteRun(store, NewSliceIterator(sortedRecords(10, 0, 1)), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(ctx, store, []RunID{id}, WithBudget(budget)); err == nil {
		t.Fatal("canceled single-run merge returned nil error")
	} else {
		requireCanceled(t, err)
	}
	if _, err := Merge(ctx, store, nil, WithBudget(budget)); err == nil {
		t.Fatal("canceled zero-run merge returned nil error")
	}
	requireNoLeaks(t, store, budget)
}

func TestGroupByCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	store := NewMemStore()
	budget := NewBudget(8)
	_, err := GroupBy(ctx, NewSliceIterator(randomRecords(1000, 6, 0)),
		&CountAggregator{}, WithStore(store), WithBudget(budget))
	requireCanceled(t, err)
	requireNoLeaks(t, store, budget)
}

// TestForeignContextErrorNotRelabeled: an input iterator surfacing a
// context error from some UNRELATED context (a timed-out DB fetch, say)
// while the sort's own ctx is live must come back as an input failure, not
// as masort.ErrCanceled.
func TestForeignContextErrorNotRelabeled(t *testing.T) {
	fetchErr := fmt.Errorf("fetch page: %w", context.DeadlineExceeded)
	n := 0
	input := FuncIterator(func() (Record, bool, error) {
		if n >= 1000 {
			return Record{}, false, fetchErr
		}
		n++
		return Record{Key: uint64(n)}, true, nil
	})
	store := NewMemStore()
	_, err := Sort(context.Background(), input, WithPageRecords(32), WithStore(store))
	if !errors.Is(err, fetchErr) {
		t.Fatalf("err = %v, want the input's own error", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("foreign context error misreported as ErrCanceled: %v", err)
	}
	if store.Live() != 0 {
		t.Fatalf("leaked %d runs", store.Live())
	}
}

// TestSortDeadlineExceeded checks the DeadlineExceeded flavor of the
// context error maps onto ErrCanceled too.
func TestSortDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	store := NewMemStore()
	_, err := Sort(ctx, NewSliceIterator(randomRecords(100, 7, 0)), WithStore(store))
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want DeadlineExceeded and ErrCanceled", err)
	}
	if store.Live() != 0 {
		t.Fatalf("leaked %d runs", store.Live())
	}
}

// TestBudgetConcurrentMutation hammers Grow/Shrink/Resize (and the read
// accessors) from several goroutines while a sort runs — the satellite
// guarantee that the Budget is safe under go test -race.
func TestBudgetConcurrentMutation(t *testing.T) {
	in := randomRecords(100_000, 8, 0)
	budget := NewBudget(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.IntN(5) {
				case 0:
					budget.Grow(rng.IntN(8))
				case 1:
					budget.Shrink(rng.IntN(8))
				case 2:
					budget.Resize(3 + rng.IntN(30))
				case 3:
					_ = budget.Target()
				case 4:
					_ = budget.Granted()
				}
				time.Sleep(50 * time.Microsecond)
			}
		}(uint64(g) + 1)
	}
	out, err := SortSlice(context.Background(), in, WithPageRecords(64), WithBudget(budget))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, in, out)
}

// TestWaitCtxWakesBlockedWaiter pins the waits of a budget's operator
// directly: a goroutine parked in WaitTarget or WaitChange must return the
// context error when canceled, with no budget change ever arriving.
func TestWaitCtxWakesBlockedWaiter(t *testing.T) {
	for _, mode := range []string{"target", "change"} {
		t.Run(mode, func(t *testing.T) {
			h := register(t, NewBudget(5))
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				if mode == "target" {
					done <- h.WaitTarget(ctx, 100)
				} else {
					done <- h.WaitChange(ctx)
				}
			}()
			for h.Stats().Waits == 0 { // counted as the waiter goes to sleep
				time.Sleep(time.Millisecond)
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("canceled wait never woke")
			}
		})
	}
}
