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

// policyNames names every AdmissionPolicy for the subtests that run under
// each.
var policyNames = [...]string{AdmitAll: "admitall", QueueWhenFull: "queue", RejectWhenFull: "reject"}

// queueing is the option of a Budget that queues operators when full.
var queueing = WithAdmissionPolicy(QueueWhenFull)

func TestBudgetDefaultFloor(t *testing.T) {
	b := NewBudget(10)
	b.Shrink(100)
	if b.Target() != minFloor {
		t.Fatalf("Target after huge Shrink = %d, want floor %d", b.Target(), minFloor)
	}
}

// TestBudgetFloorValidation: initial pages below the floor are raised to
// it.
func TestBudgetFloorValidation(t *testing.T) {
	if b := NewBudget(2); b.Target() != minFloor {
		t.Fatalf("Target() = %d, want %d", b.Target(), minFloor)
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
	if b.Target() != minFloor {
		t.Fatalf("Target after Resize(-7) = %d, want floor %d", b.Target(), minFloor)
	}
}

// register registers an operator on the budget, as every operator that
// runs on it does, queueing under QueueWhenFull.
func register(t testing.TB, b *Budget) *memarb.Handle {
	t.Helper()
	h, err := b.arb.Register(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestBudgetHotPathAllocFree: Target, Acquire, Pressure and Yield run once
// per page of every sort, through the operator's handle. On an arbiter of
// one operator with no reservations they must not allocate under any
// admission policy (and, a share of one being the whole, the handle does
// not search for its rank either: see memarb.Handle's entitled).
func TestBudgetHotPathAllocFree(t *testing.T) {
	for p, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			h := register(t, NewBudget(64, WithAdmissionPolicy(AdmissionPolicy(p))))
			allocs := testing.AllocsPerRun(1000, func() {
				if h.Target() != 64 || h.Acquire(8) != 8 || h.Pressure() != 0 {
					t.Fatal("a budget's operator is not entitled to all of it")
				}
				h.Yield(8)
			})
			if allocs != 0 {
				t.Fatalf("Target/Acquire/Pressure/Yield allocate %.1f times per page", allocs)
			}
		})
	}
}

// TestPoolSingleSort: under every policy, a sort's Result.Pool reports its
// grants, and it never held more than the budget.
func TestPoolSingleSort(t *testing.T) {
	in := randomRecords(30_000, 21, 0)
	for p, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			b := NewBudget(16, WithAdmissionPolicy(AdmissionPolicy(p)))
			res, err := Sort(context.Background(), NewSliceIterator(in), WithPageRecords(64), WithBudget(b))
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
			if res.Pool == nil || res.Pool.Grants == 0 || res.Pool.PagesGranted == 0 || res.Pool.MaxGranted == 0 {
				t.Fatalf("Result.Pool empty: %+v", res.Pool)
			}
			if res.Pool.MaxGranted > b.Target() {
				t.Fatalf("MaxGranted %d exceeds the budget's %d pages", res.Pool.MaxGranted, b.Target())
			}
			if l := Leftovers(b); l != "" {
				t.Fatalf("after completion: %s", l)
			}
		})
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
	pool := NewBudget(total, queueing)
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
				WithPageRecords(64), WithBudget(pool))
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
		floor = minFloor
	)
	pool := NewBudget(total, queueing)
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
				h, err := pool.arb.Register(ctx, true)
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
	pool := NewBudget(5, WithAdmissionPolicy(RejectWhenFull))
	defer register(t, pool).Leave()
	// One floor fits in 5 pages; a second does not.
	_, err := Sort(context.Background(), NewSliceIterator(randomRecords(100, 1, 0)),
		WithPageRecords(16), WithBudget(pool))
	if !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("err = %v, want ErrPoolSaturated", err)
	}
	// The rejection registered nothing: the test's own operator is all.
	if n := pool.Ops(); n != 1 {
		t.Fatalf("Ops = %d after the rejection, want 1", n)
	}
}

// TestPoolAdmissionRespectsReservations: admission must consider pages
// held by application reservations — a floor that exists only on paper
// (promised away to a reservation) is not admissible.
func TestPoolAdmissionRespectsReservations(t *testing.T) {
	pool := NewBudget(10, WithAdmissionPolicy(RejectWhenFull))
	defer register(t, pool).Leave()
	got, err := pool.Reserve(context.Background(), 7)
	if err != nil || got != 7 {
		t.Fatalf("Reserve = (%d, %v), want (7, nil)", got, err)
	}
	// 10 total − 7 reserved = 3: one floor fits (the first operator's), a second
	// does not.
	if _, err := pool.arb.Register(context.Background(), true); !errors.Is(err, memarb.ErrSaturated) {
		t.Fatalf("admit with floors promised away: err = %v, want ErrSaturated", err)
	}
	pool.Release(7)
	register(t, pool).Leave()
}

// TestPoolWaitTargetSurvivesShrink: a WaitTarget bound must track the
// current pool total, so an operator suspended waiting for an entitlement
// that a shrinking Resize made impossible still wakes up once the pool is
// all its own.
func TestPoolWaitTargetSurvivesShrink(t *testing.T) {
	pool := NewBudget(64, queueing)
	h1, h2 := register(t, pool), register(t, pool)
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
	pool := NewBudget(5, queueing) // room for exactly one operator
	h := register(t, pool)
	in := randomRecords(5000, 3, 0)
	done := make(chan error, 1)
	go func() {
		res, err := Sort(context.Background(), NewSliceIterator(in),
			WithPageRecords(64), WithBudget(pool))
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
	pool := NewBudget(5, queueing)
	defer register(t, pool).Leave()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Sort(ctx, NewSliceIterator(randomRecords(100, 1, 0)), WithBudget(pool))
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

// TestPoolReserveHeadroomAndRelease, like every reservation test, runs
// under every policy: Reserve is one arbiter method, whoever stands behind
// the target.
func TestPoolReserveHeadroomAndRelease(t *testing.T) {
	for p, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			pool := NewBudget(20, WithAdmissionPolicy(AdmissionPolicy(p)))
			h := register(t, pool)
			defer h.Leave()
			// Headroom is total - floors = 17: a 100-page demand is capped there.
			got, err := pool.Reserve(context.Background(), 100)
			if err != nil {
				t.Fatal(err)
			}
			if got != 17 {
				t.Fatalf("Reserve(100) granted %d, want headroom 17", got)
			}
			if n := pool.arb.Snapshot().Reserved; n != 17 {
				t.Fatalf("Reserved = %d, want 17", n)
			}
			if tgt := h.Target(); tgt != minFloor {
				t.Fatalf("operator target under full reservation = %d, want floor %d", tgt, minFloor)
			}
			// No headroom left: rejected with 0.
			got, err = pool.Reserve(context.Background(), 1)
			if err != nil || got != 0 {
				t.Fatalf("Reserve with no headroom = (%d, %v), want (0, nil)", got, err)
			}
			if pool.RejectedReservations() != 1 {
				t.Fatalf("RejectedReservations = %d, want 1", pool.RejectedReservations())
			}
			pool.Release(17)
			if n := pool.arb.Snapshot().Reserved; n != 0 {
				t.Fatalf("Reserved after Release = %d, want 0", n)
			}
			if tgt := h.Target(); tgt != 20 {
				t.Fatalf("operator target after Release = %d, want 20", tgt)
			}
		})
	}
}

func TestPoolReserveBlocksUntilYield(t *testing.T) {
	for p, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			pool := NewBudget(12, WithAdmissionPolicy(AdmissionPolicy(p)))
			h := register(t, pool)
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
		})
	}
}

func TestPoolReserveCanceled(t *testing.T) {
	for p, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			pool := NewBudget(12, WithAdmissionPolicy(AdmissionPolicy(p)))
			h := register(t, pool)
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
		})
	}
}

func TestPoolResize(t *testing.T) {
	for p, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			pool := NewBudget(6, WithAdmissionPolicy(AdmissionPolicy(p)))
			h1, h2 := register(t, pool), register(t, pool)
			if pool.Resize(4); pool.Target() != 6 {
				t.Fatalf("Resize below 2 floors set %d, want clamp at 6", pool.Target())
			}
			if pool.Resize(30); pool.Target() != 30 {
				t.Fatalf("Resize(30) set %d", pool.Target())
			}
			if tgt := h1.Target(); tgt != 15 {
				t.Fatalf("target after grow = %d, want 15", tgt)
			}
			h2.Leave()
			if tgt := h1.Target(); tgt != 30 {
				t.Fatalf("target after sibling departure = %d, want whole budget", tgt)
			}
			h1.Leave()
		})
	}
}

// TestPoolJoinAndGroupBy runs the other operator types under one pool
// concurrently on one queueing Budget, checking the plumbing beyond Sort.
func TestPoolJoinAndGroupBy(t *testing.T) {
	pool := NewBudget(24, queueing)
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
			WithPageRecords(64), WithBudget(pool))
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
			WithPageRecords(64), WithBudget(pool))
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
