package masort

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/memarb"
)

func TestPoolSingleSort(t *testing.T) {
	pool := NewPool(16)
	in := randomRecords(30_000, 21, 0)
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithPageRecords(64), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, in, out)
	if res.Pool == nil {
		t.Fatal("Result.Pool not populated for a pooled sort")
	}
	if res.Pool.Grants == 0 || res.Pool.PagesGranted == 0 || res.Pool.MaxGranted == 0 {
		t.Fatalf("pool stats empty: %+v", *res.Pool)
	}
	if res.Pool.MaxGranted > pool.Total() {
		t.Fatalf("MaxGranted %d exceeds pool total %d", res.Pool.MaxGranted, pool.Total())
	}
	if pool.Ops() != 0 {
		t.Fatalf("pool still has %d operators after completion", pool.Ops())
	}
}

// TestPoolConcurrentSorts is the acceptance scenario: many sorts share one
// pool smaller than their combined standalone budgets, all complete
// correctly, and the per-operator stats show the arbitration at work.
func TestPoolConcurrentSorts(t *testing.T) {
	const (
		sorts = 8
		total = 40 // standalone each sort would take 16 → 128 combined
	)
	pool := NewPool(total)
	var wg sync.WaitGroup
	var pagesGranted atomic.Int64
	errs := make(chan error, sorts)
	for i := 0; i < sorts; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := randomRecords(20_000, uint64(100+i), 0)
			res, err := Sort(context.Background(), NewSliceIterator(in),
				WithPageRecords(64), WithPool(pool))
			if err != nil {
				errs <- fmt.Errorf("sort %d: %w", i, err)
				return
			}
			defer res.Close()
			out, err := Drain(res.Iterator())
			if err != nil {
				errs <- fmt.Errorf("drain %d: %w", i, err)
				return
			}
			for j := 1; j < len(out); j++ {
				if Less(out[j], out[j-1]) {
					errs <- fmt.Errorf("sort %d unsorted at %d", i, j)
					return
				}
			}
			if len(out) != len(in) {
				errs <- fmt.Errorf("sort %d: %d records out, %d in", i, len(out), len(in))
				return
			}
			if res.Pool == nil {
				errs <- fmt.Errorf("sort %d: no pool stats", i)
				return
			}
			if res.Pool.MaxGranted > total {
				errs <- fmt.Errorf("sort %d: MaxGranted %d > pool total", i, res.Pool.MaxGranted)
				return
			}
			pagesGranted.Add(int64(res.Pool.PagesGranted))
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if pool.Ops() != 0 {
		t.Fatalf("pool still has %d operators", pool.Ops())
	}
	if pagesGranted.Load() == 0 {
		t.Fatal("no pages were ever granted")
	}
}

// TestPoolFairnessUnderChurn exercises the satellite scenario: operators
// joining and finishing while the application reserves and releases pages
// concurrently. Every sampled entitlement must stay at or above the floor,
// and after each wave of departures (at quiescence) the survivors' shares
// must re-equalize to within one remainder page and cover the whole pool.
func TestPoolFairnessUnderChurn(t *testing.T) {
	const (
		total = 48
		floor = 4
	)
	pool := NewPool(total, WithPoolFloor(floor))
	ctx := context.Background()

	// Application churn: reserve up to half the pool, hold briefly, release.
	stop := make(chan struct{})
	var appWG sync.WaitGroup
	appWG.Add(1)
	go func() {
		defer appWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			got, err := pool.Reserve(ctx, 1+i%24)
			if err != nil {
				return
			}
			time.Sleep(50 * time.Microsecond)
			pool.Release(got)
		}
	}()

	// Operator churn: waves of operators admit, hold/acquire/yield, leave.
	for wave := 0; wave < 5; wave++ {
		n := 2 + wave%3 // 2..4 operators per wave
		var opWG sync.WaitGroup
		handles := make([]*memarb.Handle, n)
		for i := 0; i < n; i++ {
			opWG.Add(1)
			go func() {
				defer opWG.Done()
				h, err := pool.admit(ctx, true)
				if err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				handles[i] = h
				for k := 0; k < 200; k++ {
					if tgt := h.Target(); tgt < floor {
						t.Errorf("target %d below floor %d", tgt, floor)
						return
					}
					got := h.Acquire(2)
					if p := h.Pressure(); p > 0 {
						h.Yield(p)
					}
					if got > 0 && k%3 == 0 {
						h.Yield(got)
					}
				}
				// Shed everything before the fairness check below.
				h.Yield(h.Granted())
			}()
		}
		opWG.Wait()
		if t.Failed() {
			break
		}
		// Quiescent fairness check: no reservations pending (the app
		// goroutine holds at most briefly — snapshot under the lock).
		snap := pool.arb.Snapshot()
		ops := len(snap.Targets)
		avail := total - snap.Reserved - snap.Pending
		sum := 0
		minT, maxT := total, 0
		for _, tg := range snap.Targets {
			sum += tg
			if tg < minT {
				minT = tg
			}
			if tg > maxT {
				maxT = tg
			}
		}
		if ops != n {
			t.Fatalf("wave %d: %d ops registered, want %d", wave, ops, n)
		}
		if minT < floor {
			t.Fatalf("wave %d: entitlement %d below floor", wave, minT)
		}
		if maxT-minT > 1 {
			t.Fatalf("wave %d: shares not equalized: min %d max %d", wave, minT, maxT)
		}
		if avail >= ops*floor && sum != avail {
			t.Fatalf("wave %d: shares sum to %d, want full division of %d", wave, sum, avail)
		}
		for _, h := range handles {
			h.Leave()
		}
		if pool.Ops() != 0 {
			t.Fatalf("wave %d: operators left after departures", wave)
		}
	}
	close(stop)
	appWG.Wait()
}

func TestPoolAdmissionReject(t *testing.T) {
	pool := NewPool(5, WithPoolFloor(3), WithAdmissionPolicy(RejectWhenFull))
	h, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Leave()
	// One floor fits in 5 pages; a second does not.
	_, err = Sort(context.Background(), NewSliceIterator(randomRecords(100, 1, 0)),
		WithPageRecords(16), WithPool(pool))
	if !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("err = %v, want ErrPoolSaturated", err)
	}
	if pool.RejectedOps() != 1 {
		t.Fatalf("RejectedOps = %d, want 1", pool.RejectedOps())
	}
}

// TestPoolAdmissionRespectsReservations: admission must consider pages
// held by application reservations — a floor that exists only on paper
// (promised away to a reservation) is not admissible.
func TestPoolAdmissionRespectsReservations(t *testing.T) {
	pool := NewPool(10, WithPoolFloor(3), WithAdmissionPolicy(RejectWhenFull))
	h1, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Leave()
	got, err := pool.Reserve(context.Background(), 7)
	if err != nil || got != 7 {
		t.Fatalf("Reserve = (%d, %v), want (7, nil)", got, err)
	}
	// 10 total − 7 reserved = 3: one floor fits (h1's), a second does not.
	if _, err := pool.admit(context.Background(), true); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("admit with floors promised away: err = %v, want ErrPoolSaturated", err)
	}
	pool.Release(7)
	h2, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatalf("admit after Release: %v", err)
	}
	h2.Leave()
}

// TestPoolWaitTargetSurvivesShrink: a WaitTarget bound must track the
// current pool total, so an operator suspended waiting for an entitlement
// that a shrinking Resize made impossible still wakes up once the pool is
// all its own.
func TestPoolWaitTargetSurvivesShrink(t *testing.T) {
	pool := NewPool(64)
	h1, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		h1.WaitTarget(context.Background(), 40) // blocked: two ops share 64 → target 32
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	pool.Resize(20) // 40 is now unreachable even alone
	h2.Leave()
	select {
	case <-done: // target 20 == clamped bound 20
	case <-time.After(10 * time.Second):
		t.Fatal("WaitTarget never returned after shrink + sibling departure")
	}
	h1.Leave()
}

func TestPoolAdmissionQueue(t *testing.T) {
	pool := NewPool(5, WithPoolFloor(3)) // room for exactly one operator
	h, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	in := randomRecords(5000, 3, 0)
	done := make(chan error, 1)
	go func() {
		res, err := Sort(context.Background(), NewSliceIterator(in),
			WithPageRecords(64), WithPool(pool))
		if err == nil {
			if res.Pool.AdmissionWait <= 0 {
				err = fmt.Errorf("AdmissionWait = %v, want > 0", res.Pool.AdmissionWait)
			}
			res.Close()
		}
		done <- err
	}()
	// The sort must be queued, not running: give it a beat, then free the
	// slot and expect completion.
	select {
	case err := <-done:
		t.Fatalf("sort finished while pool was full: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	h.Leave()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued sort never admitted")
	}
}

func TestPoolAdmissionCanceled(t *testing.T) {
	pool := NewPool(5, WithPoolFloor(3))
	h, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Leave()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Sort(ctx, NewSliceIterator(randomRecords(100, 1, 0)), WithPool(pool))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled admission never returned")
	}
}

func TestPoolReserveHeadroomAndRelease(t *testing.T) {
	pool := NewPool(20, WithPoolFloor(4))
	h, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Leave()
	// Headroom is total - floors = 16: a 100-page demand is capped there.
	got, err := pool.Reserve(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Fatalf("Reserve(100) granted %d, want headroom 16", got)
	}
	if pool.Reserved() != 16 {
		t.Fatalf("Reserved() = %d, want 16", pool.Reserved())
	}
	if tgt := h.Target(); tgt != 4 {
		t.Fatalf("operator target under full reservation = %d, want floor 4", tgt)
	}
	// No headroom left: rejected with 0.
	got, err = pool.Reserve(context.Background(), 1)
	if err != nil || got != 0 {
		t.Fatalf("Reserve with no headroom = (%d, %v), want (0, nil)", got, err)
	}
	if pool.RejectedReservations() != 1 {
		t.Fatalf("RejectedReservations = %d, want 1", pool.RejectedReservations())
	}
	pool.Release(16)
	if pool.Reserved() != 0 {
		t.Fatalf("Reserved() after Release = %d, want 0", pool.Reserved())
	}
	if tgt := h.Target(); tgt != 20 {
		t.Fatalf("operator target after Release = %d, want 20", tgt)
	}
}

func TestPoolReserveBlocksUntilYield(t *testing.T) {
	pool := NewPool(12, WithPoolFloor(3))
	h, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Leave()
	if got := h.Acquire(12); got != 12 {
		t.Fatalf("Acquire(12) = %d", got)
	}
	done := make(chan int, 1)
	go func() {
		got, err := pool.Reserve(context.Background(), 6)
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	select {
	case got := <-done:
		t.Fatalf("Reserve returned %d pages with none free", got)
	case <-time.After(20 * time.Millisecond):
	}
	// The operator is now under pressure; shedding it satisfies the
	// reservation.
	if p := h.Pressure(); p < 6 {
		t.Fatalf("Pressure = %d, want ≥ 6 while reservation pending", p)
	}
	h.Yield(h.Pressure())
	select {
	case got := <-done:
		if got != 6 {
			t.Fatalf("Reserve granted %d, want 6", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reservation never granted after yield")
	}
	pool.Release(6)
	h.Yield(h.Granted())
}

func TestPoolReserveCanceled(t *testing.T) {
	pool := NewPool(12, WithPoolFloor(3))
	h, err := pool.admit(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Leave()
	h.Acquire(12)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pool.Reserve(ctx, 6)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Reserve err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled Reserve never returned")
	}
	if snap := pool.arb.Snapshot(); snap.Pending != 0 || snap.Queued != 0 {
		t.Fatalf("canceled reservation left pending=%d queue=%d", snap.Pending, snap.Queued)
	}
	h.Yield(h.Granted())
}

func TestPoolResize(t *testing.T) {
	pool := NewPool(10, WithPoolFloor(5))
	h1, _ := pool.admit(context.Background(), true)
	h2, _ := pool.admit(context.Background(), true)
	if got := pool.Resize(6); got != 10 {
		t.Fatalf("Resize below 2 floors set %d, want clamp at 10", got)
	}
	if got := pool.Resize(30); got != 30 {
		t.Fatalf("Resize(30) = %d", got)
	}
	if tgt := h1.Target(); tgt != 15 {
		t.Fatalf("target after grow = %d, want 15", tgt)
	}
	h2.Leave()
	if tgt := h1.Target(); tgt != 30 {
		t.Fatalf("target after sibling departure = %d, want whole pool", tgt)
	}
	h1.Leave()
}

// TestPoolJoinAndGroupBy runs the other operator types under one pool
// concurrently, checking the WithPool plumbing beyond Sort.
func TestPoolJoinAndGroupBy(t *testing.T) {
	pool := NewPool(24)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		l := randomRecords(8000, 31, 0)
		r := randomRecords(4000, 32, 0)
		for i := range l {
			l[i].Key %= 512
		}
		for i := range r {
			r[i].Key %= 512
		}
		res, err := Join(context.Background(), NewSliceIterator(l), NewSliceIterator(r),
			WithPageRecords(64), WithPool(pool))
		if err != nil {
			errs <- fmt.Errorf("join: %w", err)
			return
		}
		defer res.Close()
		if res.Pool == nil {
			errs <- errors.New("join: no pool stats")
			return
		}
		errs <- nil
	}()
	go func() {
		defer wg.Done()
		in := randomRecords(8000, 33, 0)
		for i := range in {
			in[i].Key %= 1024
		}
		res, err := GroupBy(context.Background(), NewSliceIterator(in), &CountAggregator{},
			WithPageRecords(64), WithPool(pool))
		if err != nil {
			errs <- fmt.Errorf("groupby: %w", err)
			return
		}
		defer res.Close()
		if res.Pool == nil {
			errs <- errors.New("groupby: no pool stats")
			return
		}
		errs <- nil
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if pool.Ops() != 0 {
		t.Fatalf("pool still has %d operators", pool.Ops())
	}
}
