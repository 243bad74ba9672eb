package masort

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventsEmittedDuringAdaptiveSort(t *testing.T) {
	in := randomRecords(120_000, 21, 0)
	budget := NewBudget(32)
	var mu sync.Mutex
	counts := map[EventKind]int{}
	var phases []string
	opts := []Option{
		WithPageRecords(64),
		WithBudget(budget),
		WithEvents(func(ev Event) {
			mu.Lock()
			counts[ev.Kind]++
			if ev.Kind == EvPhase {
				phases = append(phases, ev.Phase)
			}
			if ev.Target < 0 || ev.Granted < 0 {
				t.Errorf("bad event memory state: %+v", ev)
			}
			mu.Unlock()
		}),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(1, 1))
		for {
			select {
			case <-stop:
				budget.Resize(32)
				return
			default:
				budget.Resize(3 + rng.IntN(29))
				time.Sleep(150 * time.Microsecond)
			}
		}
	}()
	out, err := sortSlice(context.Background(), in, opts...)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	if counts[EvPhase] < 3 {
		t.Fatalf("phase events = %d, want split/merge/idle", counts[EvPhase])
	}
	if counts[EvStepDone] == 0 {
		t.Fatal("no step-done events")
	}
	if counts[EvSplitStep] == 0 {
		t.Fatal("budget churn should force at least one dynamic split")
	}
	wantPhases := map[string]bool{"split": false, "merge": false, "idle": false}
	for _, p := range phases {
		wantPhases[p] = true
	}
	for p, seen := range wantPhases {
		if !seen {
			t.Fatalf("phase %q never reported", p)
		}
	}
}

// TestEventsSuspension: the budget is slashed to the floor every 100 page
// operations of the merge. Merge steps read pages continuously, so a shrink
// lands MID-step — the only moment a suspension can trigger (a step planned
// after the shrink would simply use fan-in 2). Driving the shrink from the
// sort's own I/O path makes the test deterministic even on one CPU, where
// a wall-clock squeeze goroutine may never be scheduled inside the merge
// window.
func TestEventsSuspension(t *testing.T) {
	in := randomRecords(80_000, 23, 0)
	budget := NewBudget(24)
	store := &ResizeOnOps{RunStore: NewMemStore(), Resize: budget.Resize, Cycle: []int{3}, Every: 100}
	var mu sync.Mutex
	suspends, resumes := 0, 0
	out, err := sortSlice(context.Background(), in,
		WithAdaptation(Suspension),
		WithPageRecords(64),
		WithBudget(budget),
		WithStore(store),
		WithEvents(func(ev Event) {
			mu.Lock()
			switch ev.Kind {
			case EvPhase:
				if ev.Phase == "merge" {
					store.Arm()
				}
			case EvSuspend:
				suspends++
				// Restore the budget so the suspended sort resumes. The
				// callback runs on the sorting goroutine just before it
				// parks; the wait's entry check sees the new target.
				go budget.Resize(24)
			case EvResume:
				resumes++
			}
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	if suspends == 0 || suspends != resumes {
		t.Fatalf("suspends=%d resumes=%d (must pair)", suspends, resumes)
	}
}

// TestSuspensionWaitContract pins what a suspended step waits for, which
// depends on the Budget's admission policy — who stands behind the target
// — and on nothing else, not on the worker count. 16 pages are squeezed to 3 as the first wide merge step
// starts (fan-in 4 or more: it needs at least 5), from that step's own
// start event, so its worker's next page boundary finds the target short.
//
// Under AdmitAll the owner will restore the target, so the step sleeps: it
// emits one EvSuspend and no further one until Grow gives its need back.
// Under QueueWhenFull (pool=true) nobody will, so the wait is bounded by
// the budget's total: the step gets through on the 3 pages, suspending
// again and again, and the sort finishes with the target never restored.
func TestSuspensionWaitContract(t *testing.T) {
	const full, squeezed = 16, 3
	in := randomRecords(60_000, 41, 0)
	for _, pooled := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("pool=%v/w%d", pooled, workers), func(t *testing.T) {
				budget := NewBudget(full)
				if pooled {
					budget = NewBudget(full, queueing)
				}
				var (
					mu       sync.Mutex
					shrunk   bool
					restored bool
					suspends int // squeeze to restore
				)
				restore := func() {
					// Long enough for a spinning wait to show: the thrashing
					// queueing rows run hundreds of cycles in this time.
					time.Sleep(100 * time.Millisecond)
					mu.Lock()
					defer mu.Unlock()
					restored = true
					budget.Grow(full - squeezed)
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				res, err := Sort(ctx, NewSliceIterator(in),
					WithAdaptation(Suspension), WithPageRecords(32), WithWorkers(workers), WithBudget(budget),
					WithEvents(func(ev Event) {
						mu.Lock()
						defer mu.Unlock()
						switch {
						case ev.Kind == EvStepStart && ev.Detail >= 4 && !shrunk:
							shrunk = true
							budget.Resize(squeezed)
						case ev.Kind == EvSuspend && shrunk && !restored:
							if suspends++; !pooled && suspends == 1 {
								go restore()
							}
						}
					}))
				if err != nil {
					t.Fatalf("sort: %v (a queueing Budget's wait must not outlast its total)", err)
				}
				defer res.Close()
				out, err := Drain(res.Iterator())
				if err != nil {
					t.Fatal(err)
				}
				assertSorted(t, out)
				assertPermutation(t, in, out)
				mu.Lock()
				defer mu.Unlock()
				if suspends == 0 {
					t.Fatal("the squeeze never suspended a step")
				}
				if pooled {
					if res.Stats.Suspensions < 2 {
						t.Fatalf("%d suspensions: a step needing 5 pages cannot have got through on %d in one", res.Stats.Suspensions, squeezed)
					}
					return
				}
				if suspends != 1 {
					t.Fatalf("suspended %d times before the budget was restored: the step spun instead of sleeping", suspends)
				}
			})
		}
	}
}

// publicEventKinds lists every event kind package masort re-exports; the
// compiler checks the names, TestEventKindsHavePublicAliases the coverage.
var publicEventKinds = []EventKind{
	EvSplitStep, EvCombineStart, EvCombineDone, EvCombineAbort,
	EvSuspend, EvResume, EvStepDone, EvPhase, EvRunDone, EvStepStart,
}

func TestEventKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range publicEventKinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("bad kind string %q", s)
		}
		seen[s] = true
	}
	if EventKind(99).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

// TestEventKindsHavePublicAliases: every kind the engine can deliver to a
// WithEvents callback (every kind core names, i.e. whose String is not
// "unknown") can be named from package masort.
func TestEventKindsHavePublicAliases(t *testing.T) {
	public := map[EventKind]bool{}
	for _, k := range publicEventKinds {
		public[k] = true
	}
	for k := EventKind(0); k < 64; k++ {
		if s := k.String(); s != "unknown" && !public[k] {
			t.Errorf("core event kind %d (%q) has no masort.Ev* alias", k, s)
		}
	}
}

// goroutineLabels returns the debug=1 goroutine profile, which prints each
// goroutine's pprof labels.
func goroutineLabels(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPhaseProfilerLabels: while a phase runs, the operator's goroutine
// carries op/phase pprof labels (so a CPU profile splits split from merge);
// once the operator returns — finished or aborted — they are gone.
func TestPhaseProfilerLabels(t *testing.T) {
	in := randomRecords(20_000, 5, 0)
	seen := map[string]bool{}
	res, err := Sort(context.Background(), NewSliceIterator(in), WithPageRecords(64), WithBudget(NewBudget(8)),
		WithEvents(func(ev Event) {
			if ev.Kind != EvPhase || ev.Phase == "idle" {
				return
			}
			if l := goroutineLabels(t); strings.Contains(l, `"op":"sort"`) && strings.Contains(l, `"phase":"`+ev.Phase+`"`) {
				seen[ev.Phase] = true
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if !seen["split"] || !seen["merge"] {
		t.Fatalf("phases seen labeled: %v, want split and merge", seen)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = Sort(ctx, NewSliceIterator(in), WithPageRecords(64), WithBudget(NewBudget(8)),
		WithEvents(func(ev Event) {
			if ev.Kind == EvPhase && ev.Phase == "merge" {
				cancel()
			}
		}))
	if err == nil {
		t.Fatal("canceled sort succeeded")
	}
	if labels := goroutineLabels(t); strings.Contains(labels, `"op":`) {
		t.Fatalf("operator labels outlive the operator:\n%s", labels)
	}
}
