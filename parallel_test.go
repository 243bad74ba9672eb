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

// TestSortParallelStatsAndClose: worker count lands in Stats, the segmented
// result iterates fully, and Close frees every segment.
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

// TestSortParallelSuspendResume shrinks the budget mid-parallel-merge to a
// level that cannot sustain every worker, then restores it once workers
// have parked: the sort must resume and complete, with the suspensions on
// record.
func TestSortParallelSuspendResume(t *testing.T) {
	in := randomRecords(50_000, 33, 0)
	budget := NewBudget(48)
	var (
		mu       sync.Mutex
		merging  bool
		events   int
		shrunk   bool
		suspends int
		restored bool
	)
	out, err := SortSlice(context.Background(), in,
		WithWorkers(4), WithPageRecords(64), WithBudget(budget),
		WithEvents(func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case ev.Kind == EvPhase && ev.Phase == "merge":
				merging = true
			case merging && !shrunk:
				events++
				if events > 4 {
					shrunk = true
					budget.Resize(6)
				}
			case ev.Kind == EvSuspend && shrunk && !restored:
				suspends++
				if suspends >= 2 {
					restored = true
					budget.Resize(48)
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, in, out)
	mu.Lock()
	defer mu.Unlock()
	if !shrunk || suspends == 0 {
		t.Fatalf("shrink window never exercised (shrunk=%v suspends=%d)", shrunk, suspends)
	}
}

// TestSortParallelCancelLeakFree cancels mid-parallel-merge: the abort must
// leave no runs in the store and no pages or operators in the pool.
func TestSortParallelCancelLeakFree(t *testing.T) {
	in := randomRecords(50_000, 9, 0)
	pool := NewPool(48)
	store := NewMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu       sync.Mutex
		merging  bool
		events   int
		canceled bool
	)
	_, err := Sort(ctx, NewSliceIterator(in),
		WithStore(store), WithPool(pool), WithWorkers(4), WithPageRecords(64),
		WithEvents(func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Kind == EvPhase && ev.Phase == "merge" {
				merging = true
				return
			}
			if merging && !canceled {
				events++
				if events > 4 {
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
		t.Fatal("cancellation never triggered mid-merge")
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

// TestMergeParallel drives Merge's tree path: many pre-written runs, one
// output run, correct and leak-free.
func TestMergeParallel(t *testing.T) {
	store := NewMemStore()
	var ids []RunID
	var all []Record
	for i := 0; i < 9; i++ {
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
		WithWorkers(3), WithPageRecords(64), WithBudget(NewBudget(32)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 3 {
		t.Fatalf("Stats.Workers = %d, want 3", res.Stats.Workers)
	}
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, all, out)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if live := store.Live(); live != 0 {
		t.Fatalf("store still has %d live runs", live)
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
// on abort — also the run group of a worker that was still parked (a 3-page
// budget sustains one of the two) when the cancel landed. The parent of this
// test left two of the four input runs live.
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
// GOMAXPROCS at option-application time, negatives clamp to serial, and the
// zero-value configuration stays serial.
func TestWithWorkersResolution(t *testing.T) {
	o := applyOptions([]Option{WithWorkers(0)})
	if want := runtime.GOMAXPROCS(0); o.workers != want {
		t.Fatalf("WithWorkers(0): workers = %d, want GOMAXPROCS %d", o.workers, want)
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
