package memarb

import (
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// asyncReserve is a Reserve running on its own goroutine, so that the
// single-goroutine walk below can have one waiting in the queue.
type asyncReserve struct {
	got    chan int
	cancel context.CancelFunc
}

func startReserve(a *Arbiter, want int) *asyncReserve {
	ctx, cancel := context.WithCancel(context.Background())
	r := &asyncReserve{got: make(chan int, 1), cancel: cancel}
	go func() {
		defer cancel()
		got, _ := a.Reserve(ctx, want)
		r.got <- got
	}()
	return r
}

// TestArbiterNestedConservation drives one arbiter of each admission
// policy through a seeded random walk over everything that moves pages or
// entitlements — resizes, reservations (granted at once, queued behind
// operators' holdings, and canceled in the queue), admissions and
// departures, acquires and yields — and checks the accounts after every
// step:
//
//   - Σ operators' granted + reserved + free == total;
//   - the floors stay coverable: total ≥ operators × floor + reserved +
//     pending, and at least one floor, and so every operator's target is
//     at least the floor (a floor of 3 to 6 pages, by seed);
//   - AdmitAll admits every operator (raising its total), the other
//     policies only while one more floor fits;
//   - an Acquire never takes a handle past its target.
//
// One goroutine makes every move. The one exception is a reservation that
// has to queue: Reserve blocks, so it waits on a goroutine of its own, which
// touches nothing else; the walk goes on once the queue shows it.
func TestArbiterNestedConservation(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		admission, floor := Admission(seed%3), 3+int(seed%4)
		shared := admission != AdmitAll
		a := New(Config{Total: 40 + rng.IntN(40), Floor: floor, Admission: admission})
		var ops []*Handle
		var queued *asyncReserve // the one Reserve that may be waiting in the queue
		held := 0                // reserved pages the walk has to release

		check := func(step int, what string) {
			t.Helper()
			a.mu.Lock()
			defer a.mu.Unlock()
			sum := 0
			for _, o := range a.ops {
				sum += o.granted
				if tg := o.entitled(); tg < a.pol.Floor {
					t.Fatalf("seed %d step %d (%s): an operator's target %d is below the floor", seed, step, what, tg)
				}
			}
			if sum+a.reserved+a.free != a.pol.Total {
				t.Fatalf("seed %d step %d (%s): granted %d + reserved %d + free %d != total %d",
					seed, step, what, sum, a.reserved, a.free, a.pol.Total)
			}
			if floors := len(a.ops)*a.pol.Floor + a.reserved + a.pending; a.pol.Total < max(floors, a.pol.Floor) {
				t.Fatalf("seed %d step %d (%s): total %d does not cover %d floors, %d reserved and %d pending",
					seed, step, what, a.pol.Total, len(a.ops), a.reserved, a.pending)
			}
		}

		for step := 0; step < 4000; step++ {
			what := ""
			var h *Handle
			if len(ops) > 0 {
				h = ops[rng.IntN(len(ops))]
			}
			switch k := rng.IntN(10); {
			case k == 0:
				what = "resize"
				a.Resize(10 + rng.IntN(90))
			case k == 1:
				what = "grow"
				a.Grow(rng.IntN(21) - 10)
			case k == 2 && queued == nil:
				what = "reserve"
				r := startReserve(a, 1+rng.IntN(30))
				// Let it settle: the result is in (rejected, or granted at
				// once), or it queued behind the operators' holdings.
				for settled := false; !settled; runtime.Gosched() {
					select {
					case got := <-r.got:
						held += got
						settled = true
					default:
						if a.Snapshot().Queued > 0 {
							queued, settled = r, true
						}
					}
				}
			case k == 3 && queued != nil:
				what = "cancel queued reserve"
				queued.cancel()
				held += <-queued.got // 0, unless the grant won the race
				queued = nil
			case k == 4 && held > 0:
				what = "release"
				n := 1 + rng.IntN(held)
				a.Release(n)
				held -= n
			case k == 5:
				what = "admit"
				s := a.Snapshot()
				fits := (len(s.Targets)+1)*floor <= s.Total-s.Reserved-s.Pending
				nh, err := a.Register(context.Background(), false)
				if (err == nil) != (fits || !shared) {
					t.Fatalf("seed %d step %d: Register with %d operators on %+v: %v", seed, step, len(s.Targets), s, err)
				}
				if err == nil {
					ops = append(ops, nh)
				}
			case h == nil:
				continue
			case k == 6:
				what = "unregister"
				h.Leave()
				ops = slices.DeleteFunc(ops, func(x *Handle) bool { return x == h })
			case k <= 8: // acquire, twice as likely as the rest
				what = "acquire"
				if got := h.Acquire(1 + rng.IntN(12)); got > 0 && h.Granted() > h.Target() {
					t.Fatalf("seed %d step %d: Acquire granted %d pages, leaving %d held against a target of %d", seed, step, got, h.Granted(), h.Target())
				}
			default:
				what = "yield"
				// Shedding pressure first is what lets queued reservations in.
				h.Yield(max(h.Pressure(), rng.IntN(6)))
			}
			if queued != nil && a.Snapshot().Queued == 0 {
				held += <-queued.got // the walk freed enough pages: it was granted
				queued = nil
			}
			check(step, what)
		}
		if queued != nil {
			queued.cancel()
			held += <-queued.got
		}
		a.Release(held)
		for _, h := range ops {
			h.Leave()
		}
		if s := a.Snapshot(); s.Free != s.Total || s.Reserved != 0 || s.Pending != 0 || len(s.Targets) != 0 {
			t.Fatalf("seed %d: arbiter not empty after everyone left: %+v", seed, s)
		}
	}
}

// TestWaitChangeCountsFromLastLook: a WaitChange is a wait for a change
// since the handle last looked, not since the wait began. An operator that
// acquires nothing — its sibling holds the whole pool — then loses the
// processor while the sibling leaves — the only change there will ever be —
// must not sleep through it; and once it has returned, the next wait is for
// the next change.
func TestWaitChangeCountsFromLastLook(t *testing.T) {
	a := New(Config{Total: 6, Floor: 3, Admission: QueueWhenFull})
	older, _ := a.Register(context.Background(), false)
	older.Acquire(6)
	h, _ := a.Register(context.Background(), false)
	if got := h.Acquire(1); got != 0 {
		t.Fatalf("acquired %d pages of a pool its sibling holds", got)
	}
	older.Leave()
	h.WaitChange(context.Background()) // a wait from its start would sleep forever
	if got := h.Target(); got != 6 {
		t.Fatalf("the operator left alone has target %d, want 6", got)
	}
	woke := make(chan struct{})
	go func() {
		h.WaitChange(context.Background())
		close(woke)
	}()
	for range 100 { // nothing changed since: spurious wakeups put it back to sleep
		a.wake()
		runtime.Gosched()
	}
	select {
	case <-woke:
		t.Fatal("WaitChange returned twice for one change")
	default:
	}
	a.Resize(9)
	<-woke
}

// sleepers waits until the operator has n waits on its account: a wait is
// counted, under the lock, as it goes to sleep.
func sleepers(t *testing.T, op *Handle, n int) {
	t.Helper()
	for i := 0; op.Stats().Waits < n; i++ {
		if i > 5000 {
			t.Fatalf("%d of %d waiters asleep", op.Stats().Waits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneChangeWakesEveryWaiter: the baseline a wait compares against is
// taken when it begins, so the first of several waiters on one handle to wake
// does not put the others back to sleep by recording the change as seen.
func TestOneChangeWakesEveryWaiter(t *testing.T) {
	for name, wait := range map[string]func(*Handle) error{
		"WaitChange": func(h *Handle) error { return h.WaitChange(context.Background()) },
		"WaitTarget": func(h *Handle) error { return h.WaitTarget(context.Background(), 9) },
	} {
		t.Run(name, func(t *testing.T) {
			a := New(Config{Total: 8, Floor: 3})
			h, _ := a.Register(context.Background(), false)
			var wg sync.WaitGroup
			for range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := wait(h); err != nil {
						t.Error(err)
					}
				}()
			}
			sleepers(t, h, 3)
			a.Resize(9)
			wg.Wait() // a waiter left asleep hangs the test
		})
	}
}
