package masort

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSortParallelMatchesSerial: WithWorkers must not change the output —
// the parallel result is value-identical to the serial sort, record for
// record, across every method × adaptation.
func TestSortParallelMatchesSerial(t *testing.T) {
	in := randomRecords(60_000, 21, 8)
	for _, m := range []Method{ReplacementSelection, Quicksort} {
		for _, ad := range []Adaptation{DynamicSplitting, MRUPaging, Suspension} {
			t.Run(fmt.Sprintf("m%d-a%d", m, ad), func(t *testing.T) {
				serial, err := SortSlice(context.Background(), in,
					WithMethod(m), WithAdaptation(ad),
					WithPageRecords(64), WithBudget(NewBudget(48)))
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				par, err := SortSlice(context.Background(), in,
					WithMethod(m), WithAdaptation(ad), WithWorkers(4),
					WithPageRecords(64), WithBudget(NewBudget(48)))
				if err != nil {
					t.Fatalf("parallel: %v", err)
				}
				if len(par) != len(serial) {
					t.Fatalf("parallel %d records, serial %d", len(par), len(serial))
				}
				for i := range par {
					if par[i].Key != serial[i].Key || !bytes.Equal(par[i].Payload, serial[i].Payload) {
						t.Fatalf("outputs diverge at record %d", i)
					}
				}
			})
		}
	}
}

// TestSortParallelStatsAndClose: worker count lands in Stats, the result
// iterates fully, and Close frees every run it kept.
func TestSortParallelStatsAndClose(t *testing.T) {
	in := randomRecords(40_000, 4, 0)
	store := NewMemStore()
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithStore(store), WithWorkers(2), WithPageRecords(64), WithBudget(NewBudget(48)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 2 {
		t.Fatalf("Stats.Workers = %d, want 2", res.Stats.Workers)
	}
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, in, out)
	if res.Tuples != len(in) {
		t.Fatalf("Tuples = %d, want %d", res.Tuples, len(in))
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if live := store.Live(); live != 0 {
		t.Fatalf("store still has %d live runs after Close", live)
	}
	if _, _, err := res.Iterator().Next(); !errors.Is(err, ErrFreed) {
		t.Fatalf("iterating a closed result: %v, want ErrFreed", err)
	}
}

// TestSortParallelUnderPoolChurn: concurrent parallel sorts under one
// shared pool whose total is resized the whole time — grants must always
// settle back to zero and every output stay correct.
func TestSortParallelUnderPoolChurn(t *testing.T) {
	pool := NewPool(64)
	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		sizes := []int{32, 56, 24, 64, 40}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			pool.Resize(sizes[i%len(sizes)])
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const sorts = 2
	var wg sync.WaitGroup
	errs := make(chan error, sorts)
	for i := 0; i < sorts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := randomRecords(30_000, uint64(50+i), 4)
			out, err := SortSlice(context.Background(), in,
				WithPool(pool), WithWorkers(4), WithPageRecords(64))
			if err != nil {
				errs <- fmt.Errorf("sort %d: %w", i, err)
				return
			}
			for j := 1; j < len(out); j++ {
				if Less(out[j], out[j-1]) {
					errs <- fmt.Errorf("sort %d: unsorted at %d", i, j)
					return
				}
			}
			if len(out) != len(in) {
				errs <- fmt.Errorf("sort %d: %d records out, %d in", i, len(out), len(in))
			}
		}(i)
	}
	wg.Wait()
	close(done)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := pool.Ops(); n != 0 {
		t.Fatalf("pool still has %d operators registered", n)
	}
	if n := pool.Reserved(); n != 0 {
		t.Fatalf("pool still has %d pages reserved", n)
	}
}

// TestSortParallelSuspendResume: a four-worker sort's merge is one merge,
// run under the drain's Next. The budget shrinks to 6 pages as its held step
// starts — below the step's requirement — and is restored once the step has
// suspended: the sort must resume and complete, with exactly that one
// suspension on record.
func TestSortParallelSuspendResume(t *testing.T) {
	in := randomRecords(50_000, 33, 0)
	budget := NewBudget(48)
	var (
		mu       sync.Mutex
		returned bool
		shrunk   bool
		suspends int
	)
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithWorkers(4), WithPageRecords(64), WithBudget(budget), WithAdaptation(Suspension),
		WithEvents(func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case ev.Kind == EvStepStart && returned && !shrunk:
				shrunk = true
				budget.Resize(6)
			case ev.Kind == EvSuspend && shrunk:
				if suspends++; suspends == 1 {
					budget.Resize(48)
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	mu.Lock()
	returned = true
	mu.Unlock()
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, in, out)
	mu.Lock()
	defer mu.Unlock()
	if !shrunk || suspends != 1 || res.Stats.Suspensions != 1 || res.Stats.Workers != 2 {
		t.Fatalf("shrunk %v, %d suspensions seen, Stats %d on %d workers: want the one merge's one suspension on 2 workers",
			shrunk, suspends, res.Stats.Suspensions, res.Stats.Workers)
	}
}

// TestSortParallelCancelLeakFree cancels a two-worker sort while its split
// runs: the abort must leave no runs in the store — the
// runs written so far included — and no pages or operators in the pool.
func TestSortParallelCancelLeakFree(t *testing.T) {
	in := randomRecords(50_000, 9, 0)
	pool := NewPool(48)
	store := NewMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu       sync.Mutex
		runs     int
		canceled bool
	)
	_, err := Sort(ctx, NewSliceIterator(in),
		WithStore(store), WithPool(pool), WithWorkers(4), WithPageRecords(64),
		WithEvents(func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Kind == EvRunDone && !canceled {
				if runs++; runs > 4 {
					canceled = true
					cancel()
				}
			}
		}))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled/context.Canceled, got %v", err)
	}
	mu.Lock()
	if !canceled {
		mu.Unlock()
		t.Fatal("cancellation never triggered in the split")
	}
	mu.Unlock()
	if live := store.Live(); live != 0 {
		t.Fatalf("aborted sort left %d live runs", live)
	}
	if n := pool.Ops(); n != 0 {
		t.Fatalf("pool still has %d operators registered", n)
	}
	if n := pool.Reserved(); n != 0 {
		t.Fatalf("pool still has %d pages reserved", n)
	}
}

// TestMergeParallel: a Merge has no run generation to parallelise, so Merge
// at three workers is the one-worker merge — the same output record for
// record, the same steps — and Stats.Workers says 1. Three runs and nine,
// each all one step can merge: the parent of this test merged nine on three
// workers in a tree of four steps.
func TestMergeParallel(t *testing.T) {
	for _, n := range []int{3, 9} {
		t.Run(fmt.Sprintf("runs%d", n), func(t *testing.T) {
			merge := func(workers int) ([]Record, []Record, Stats) {
				store := NewMemStore()
				var ids []RunID
				var all []Record
				for i := range n {
					recs := randomRecords(3000, uint64(70+i), 4)
					sorted, err := SortSlice(context.Background(), recs, WithPageRecords(64))
					if err != nil {
						t.Fatal(err)
					}
					id, _, err := WriteRun(store, NewSliceIterator(sorted), 64)
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
					all = append(all, recs...)
				}
				res, err := Merge(context.Background(), store, ids,
					WithWorkers(workers), WithPageRecords(64), WithBudget(NewBudget(32)))
				if err != nil {
					t.Fatalf("merge at %d workers: %v", workers, err)
				}
				out, err := Drain(res.Iterator())
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Close(); err != nil {
					t.Fatal(err)
				}
				if live := store.Live(); live != 0 {
					t.Fatalf("store still has %d live runs at %d workers", live, workers)
				}
				return all, out, res.Stats
			}
			all, want, one := merge(1)
			assertSorted(t, want)
			assertPermutation(t, all, want)
			_, got, three := merge(3)
			if len(got) != len(want) {
				t.Fatalf("%d records at 3 workers, %d at one", len(got), len(want))
			}
			for i := range got {
				if got[i].Key != want[i].Key || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("outputs diverge at record %d", i)
				}
			}
			if three.Workers != 1 || three.MergeSteps != one.MergeSteps {
				t.Fatalf("at 3 workers: Stats.Workers = %d, %d merge steps; want 1 and the one-worker %d",
					three.Workers, three.MergeSteps, one.MergeSteps)
			}
		})
	}
}

// cancelOnAppend cancels the operation from its own nth store append, so the
// cancel lands at a known point of the merge on any number of CPUs.
type cancelOnAppend struct {
	*MemStore
	cancel  context.CancelFunc
	at      int64
	appends atomic.Int64
}

func (s *cancelOnAppend) Append(id RunID, pages []Page) (Token, error) {
	if s.appends.Add(1) == s.at {
		s.cancel()
	}
	return s.MemStore.Append(id, pages)
}

// TestMergeParallelCancelWhileWorkerParked: Merge consumes its inputs even
// on abort — at two workers on a 3-page budget, with the cancel landing at
// its first append, all four input runs, not only the ones its first step
// read. The parent of this test left two of the four input runs live.
func TestMergeParallelCancelWhileWorkerParked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := &cancelOnAppend{MemStore: NewMemStore(), cancel: cancel, at: 1}
	var ids []RunID
	for i := range 4 {
		id, _, err := WriteRun(store.MemStore, NewSliceIterator(sortedRecords(2000, uint64(i), 4)), 32)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	budget := NewBudget(3)
	_, err := Merge(ctx, store, ids, WithWorkers(2), WithPageRecords(32), WithBudget(budget))
	requireCanceled(t, err)
	requireNoLeaks(t, store.MemStore, budget)
}

// TestWithWorkersResolution pins the option semantics: 0 resolves to
// GOMAXPROCS at option-application time, capped at the two goroutines a
// sort can use, as is any larger count; negatives clamp to serial, and the
// zero-value configuration stays serial.
func TestWithWorkersResolution(t *testing.T) {
	o := applyOptions([]Option{WithWorkers(0)})
	if want := min(runtime.GOMAXPROCS(0), 2); o.workers != want {
		t.Fatalf("WithWorkers(0): workers = %d, want GOMAXPROCS capped at 2, %d", o.workers, want)
	}
	o = applyOptions([]Option{WithWorkers(8)})
	if o.workers != 2 {
		t.Fatalf("WithWorkers(8): workers = %d, want 2", o.workers)
	}
	o = applyOptions([]Option{WithWorkers(-3)})
	if o.workers != 1 {
		t.Fatalf("WithWorkers(-3): workers = %d, want 1", o.workers)
	}
	o = applyOptions(nil)
	if o.workers != 0 {
		t.Fatalf("no options: workers = %d, want 0 (serial)", o.workers)
	}
	// A 1-worker request reports serial execution in the stats.
	res, err := Sort(context.Background(), NewSliceIterator(randomRecords(2000, 1, 0)),
		WithWorkers(1), WithPageRecords(64))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Stats.Workers != 1 {
		t.Fatalf("Stats.Workers = %d, want 1", res.Stats.Workers)
	}
}
