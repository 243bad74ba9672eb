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

// modelOp is one registered operator of the conservation model with the
// sub-handles of its latest division, left or not.
type modelOp struct {
	h       *Handle
	crew    []*Handle
	minNeed int
}

// live counts the workers still working for the operator.
func (o *modelOp) live() int {
	if o.crew == nil {
		return 0
	}
	return len(o.crew[0].crew.live)
}

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

// TestArbiterNestedConservation drives one arbiter through a seeded random
// walk over everything that moves pages or entitlements — resizes,
// reservations (granted at once, queued behind operators' holdings, and
// canceled in the queue), admissions and departures, divisions of an
// operator among a crew, and acquires, yields and departures at both levels
// — and checks the nested accounts after every step:
//
//   - Σ operators' granted + reserved + free == total;
//   - a divided operator's granted is the sum of its workers';
//   - its workers' targets sum to its own whenever that covers minNeed
//     (they do below it too — the lowest-ranked worker takes what there is
//     — but that is the grid test's to pin, not this one's);
//   - an Acquire never takes a handle past its target, nor its operator.
//
// One goroutine makes every move. The one exception is a reservation that
// has to queue: Reserve blocks, so it waits on a goroutine of its own, which
// touches nothing else; the walk goes on once the queue shows it.
func TestArbiterNestedConservation(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		a := New(Config{Total: 40 + rng.IntN(40), Floor: 3, ClampWaits: seed%2 == 0})
		var ops []*modelOp
		var queued *asyncReserve // the one Reserve that may be waiting in the queue
		held := 0                // reserved pages the walk has to release

		check := func(step int, what string) {
			t.Helper()
			a.mu.Lock()
			defer a.mu.Unlock()
			sum := 0
			for _, o := range a.ops {
				sum += o.granted
			}
			if sum+a.reserved+a.free != a.pol.Total {
				t.Fatalf("seed %d step %d (%s): granted %d + reserved %d + free %d != total %d",
					seed, step, what, sum, a.reserved, a.free, a.pol.Total)
			}
			for _, o := range ops {
				if o.live() == 0 {
					continue
				}
				granted, targets := 0, 0
				for _, w := range o.crew {
					granted += w.granted
					targets += w.entitled(false)
				}
				if granted != o.h.granted {
					t.Fatalf("seed %d step %d (%s): workers hold %d, their operator %d", seed, step, what, granted, o.h.granted)
				}
				if pt := o.h.entitled(false); pt >= o.minNeed && targets != pt {
					t.Fatalf("seed %d step %d (%s): workers' targets sum to %d, their operator's is %d", seed, step, what, targets, pt)
				}
			}
		}
		acquire := func(step int, h *Handle) {
			t.Helper()
			got := h.Acquire(1 + rng.IntN(12))
			for x := h; got > 0 && x != nil; x = x.parent() {
				if g, tg := x.Granted(), x.Target(); g > tg {
					t.Fatalf("seed %d step %d: Acquire granted %d pages, leaving %d held against a target of %d", seed, step, got, g, tg)
				}
			}
		}

		for step := 0; step < 4000; step++ {
			what := ""
			var o *modelOp
			if len(ops) > 0 {
				o = ops[rng.IntN(len(ops))]
			}
			switch k := rng.IntN(12); {
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
				if h, err := a.Register(context.Background(), uint64(step), false); err == nil {
					ops = append(ops, &modelOp{h: h})
				}
			case o == nil:
				continue
			case k == 6 && o.live() == 0:
				what = "unregister"
				o.h.Leave()
				ops = slices.DeleteFunc(ops, func(x *modelOp) bool { return x == o })
			case k == 7 && o.live() == 0:
				what = "divide"
				o.h.Yield(o.h.Granted()) // a crew starts with its operator holding nothing
				o.minNeed = []int{0, 1, 3, 5}[rng.IntN(4)]
				o.crew = o.h.Divide(2+rng.IntN(3), o.minNeed)
			case k == 8 && o.live() > 0:
				what = "worker leaves"
				o.crew[rng.IntN(len(o.crew))].Leave() // again, if it left before
			case k <= 9: // acquire, twice as likely as the rest
				what = "acquire"
				if o.live() > 0 {
					acquire(step, o.crew[rng.IntN(len(o.crew))])
				} else {
					acquire(step, o.h)
				}
			default:
				what = "yield"
				h := o.h
				if o.live() > 0 {
					h = o.crew[rng.IntN(len(o.crew))]
				}
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
		for _, o := range ops {
			for _, w := range o.crew {
				w.Leave()
			}
			o.h.Leave()
		}
		if s := a.Snapshot(); s.Free != s.Total || s.Reserved != 0 || s.Pending != 0 || len(s.Targets) != 0 {
			t.Fatalf("seed %d: arbiter not empty after everyone left: %+v", seed, s)
		}
	}
}

// TestClampedWaitOfParkedWorkerSleeps: under ClampWaits a wait's bound is
// what the total could entitle the waiter to — for a worker, its share of
// the total. A parked worker's share is zero, and a bound of zero would be
// met at once: it must still sleep until a sibling's departure hands it a
// rank with pages.
func TestClampedWaitOfParkedWorkerSleeps(t *testing.T) {
	a := New(Config{Total: 3, Floor: 3, ClampWaits: true})
	op, _ := a.Register(context.Background(), 0, false)
	crew := op.Divide(2, 3)
	if got := crew[1].Target(); got != 0 {
		t.Fatalf("second worker of a 3-page operator has target %d, want 0 (parked)", got)
	}
	crew[0].WaitTarget(16) // bounded by its share of the total: returns
	woke := make(chan struct{})
	go func() {
		crew[1].WaitTarget(16)
		close(woke)
	}()
	for range 100 { // spurious wakeups must put it back to sleep
		a.wake()
		runtime.Gosched()
	}
	select {
	case <-woke:
		t.Fatal("parked worker's clamped wait returned on a zero share")
	default:
	}
	crew[0].Leave()
	<-woke
	if got := crew[1].Target(); got != 3 {
		t.Fatalf("worker promoted to rank 0 has target %d, want 3", got)
	}
}

// TestWaitChangeCountsFromLastLook: a WaitChange is a wait for a change
// since the handle last looked, not since the wait began. A worker that
// acquires nothing, then loses the processor while its sibling leaves — the
// only change there will ever be — must not sleep through it; and once it
// has returned, the next wait is for the next change.
func TestWaitChangeCountsFromLastLook(t *testing.T) {
	a := New(Config{Total: 8, Floor: 3})
	op, _ := a.Register(context.Background(), 0, false)
	crew := op.Divide(2, 6)
	if got := crew[1].Acquire(1); got != 0 {
		t.Fatalf("parked worker acquired %d pages", got)
	}
	crew[0].Leave()
	crew[1].WaitChange() // at the parent of this change: sleeps forever
	if got := crew[1].Target(); got != 8 {
		t.Fatalf("worker promoted to rank 0 has target %d, want 8", got)
	}
	woke := make(chan struct{})
	go func() {
		crew[1].WaitChange()
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
	for name, wait := range map[string]func(*Handle){
		"WaitChange":     (*Handle).WaitChange,
		"WaitNextChange": func(h *Handle) { _ = h.WaitNextChange(context.Background()) },
	} {
		t.Run(name, func(t *testing.T) {
			a := New(Config{Total: 8, Floor: 3})
			h, _ := a.Register(context.Background(), 0, false)
			var wg sync.WaitGroup
			for range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					wait(h)
				}()
			}
			sleepers(t, h, 3)
			a.Resize(9)
			wg.Wait() // a waiter left asleep hangs the test
		})
	}
}

// TestOnlookerLeavesTheChangeToTheWorker: WaitNextChange waits from the call
// — a change before it does not count — and keeps no memory on the handle,
// so the change it returns on is still there for the handle's own WaitChange.
func TestOnlookerLeavesTheChangeToTheWorker(t *testing.T) {
	a := New(Config{Total: 8, Floor: 3})
	h, _ := a.Register(context.Background(), 0, false)
	a.Resize(9) // the worker has not looked since
	looked := make(chan struct{})
	go func() {
		_ = h.WaitNextChange(context.Background())
		close(looked)
	}()
	sleepers(t, h, 1) // the resize above is not "next"
	a.Resize(10)
	<-looked
	h.WaitChange() // both resizes are news to the worker: returns at once
}
