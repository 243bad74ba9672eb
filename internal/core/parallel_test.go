package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/memarb"
	"github.com/memadapt/masort/internal/randx"
)

// ---- thread-safe test substrate (the serial harness in testenv_test.go is
// deliberately unsynchronized; tests whose budget moves from another
// goroutine, or from inside a store call, need their own) ----

// testBudget is the real arbiter set up the way masort.NewBudget sets it up
// — 3-page floor, unclamped waits — with one operator registered on it, so
// the tests exercise the broker that ships.
type testBudget struct {
	*memarb.Handle
	arb *memarb.Arbiter
}

func newTestBudget(total int) *testBudget {
	arb := memarb.New(memarb.Config{Total: total, Floor: 3})
	h, _ := arb.Register(context.Background(), false)
	return &testBudget{Handle: h, arb: arb}
}

func (b *testBudget) Resize(n int) { b.arb.Resize(n) }

// safeStore is a mutex-guarded in-memory RunStore with an append
// observation hook, for driving budget changes from store traffic.
type safeStore struct {
	mu    sync.Mutex
	runs  map[RunID][]Page
	freed map[RunID]bool
	next  RunID
	// onAppend observes (run, total appends so far, pages in this batch)
	// under the store lock.
	onAppend func(id RunID, nth int, pages int)
	appends  int
	// gate, when set, sees an append's pages before the store lock is taken,
	// so it may block the appending worker without blocking its siblings'
	// store calls.
	gate func(pages []Page)
}

func newSafeStore() *safeStore {
	return &safeStore{runs: map[RunID][]Page{}, freed: map[RunID]bool{}}
}

func (s *safeStore) Create() (RunID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	s.runs[id] = nil
	return id, nil
}

func (s *safeStore) Append(id RunID, pages []Page) (Token, error) {
	if s.gate != nil {
		s.gate(pages)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return nil, fmt.Errorf("append to freed run %d", id)
	}
	for _, p := range pages {
		cp := make(Page, len(p))
		copy(cp, p)
		s.runs[id] = append(s.runs[id], cp)
	}
	s.appends++
	if s.onAppend != nil {
		s.onAppend(id, s.appends, len(pages))
	}
	return instantToken{}, nil
}

func (s *safeStore) ReadAsync(id RunID, page int) PageToken {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return instantPageToken{err: fmt.Errorf("read of freed run %d", id)}
	}
	pages := s.runs[id]
	if page < 0 || page >= len(pages) {
		return instantPageToken{err: fmt.Errorf("read page %d of run %d with %d pages", page, id, len(pages))}
	}
	return instantPageToken{pg: pages[page]}
}

func (s *safeStore) Pages(id RunID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs[id])
}

func (s *safeStore) Free(id RunID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed[id] {
		return fmt.Errorf("double free of run %d", id)
	}
	s.freed[id] = true
	return nil
}

func (s *safeStore) liveRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id := range s.runs {
		if !s.freed[id] {
			n++
		}
	}
	return n
}

func (s *safeStore) records(ids []RunID) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, id := range ids {
		for _, p := range s.runs[id] {
			out = append(out, p...)
		}
	}
	return out
}

// sortOutput returns res's records: its stored run's, or what a Stream of
// its held last step on mem yields, after which it closes it. The store
// must hold exactly the runs the result keeps, and after a Stream and Close
// nothing.
func sortOutput(t *testing.T, store *safeStore, res *SortResult, mem Broker) []Record {
	t.Helper()
	if res.Last == nil {
		if live := store.liveRuns(); live != 1 {
			t.Fatalf("store has %d live runs, want the result run", live)
		}
		return store.records([]RunID{res.Result})
	}
	if live := store.liveRuns(); live != len(res.Last.runs) {
		t.Fatalf("store has %d live runs, the held step keeps %d", live, len(res.Last.runs))
	}
	out := streamAll(t, res.Last, mem)
	if live := store.liveRuns(); live != 0 {
		t.Fatalf("store has %d live runs after the held step closed", live)
	}
	return out
}

// ---- tests ----

// payloadRecords generates n records over a narrow key range with short
// payloads, so the (key, payload) order is exercised on plenty of key ties.
func payloadRecords(n int, seed uint64) []Record {
	rng := randx.New(seed, "payload-records")
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(rng.IntN(n / 4)), Payload: []byte{byte(rng.IntN(256)), byte(i)}}
	}
	return recs
}

func compareRecords(a, b Record) int {
	if a.Key != b.Key {
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	return bytes.Compare(a.Payload, b.Payload)
}

// TestParallelSortMatchesSerial is the determinism contract of the one phase
// driver: for every method × adaptation — a broker that is not the arbiter
// included, all through the same entry — the output equals slices.SortFunc
// on (key, payload), stored or streamed. The w labels are the worker counts
// a host may ask for (masort.WithWorkers); the engine never sees them, so
// each case reruns the one sort, which must come out the same every time.
// The merge holds its last step exactly when the Env asks for it
// (StreamLast).
func TestParallelSortMatchesSerial(t *testing.T) {
	recs := payloadRecords(20000, 7)
	want := slices.Clone(recs)
	slices.SortFunc(want, compareRecords)
	type variant struct {
		name  string
		noCtx bool
	}
	variants := []variant{
		{"w1", false}, {"w2", false}, {"w4", false},
		// A broker that is not the arbiter's handle (nocb).
		{"w4nocb", true},
	}
	for _, method := range []Method{Quick, Repl} {
		for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
			for _, v := range variants {
				t.Run(fmt.Sprintf("m%d_a%d_%s", method, adapt, v.name), func(t *testing.T) {
					cfg := SortConfig{
						Method: method, BlockPages: 6, Merge: OptMerge,
						Adapt: adapt, PageRecords: 32,
					}
					for _, stream := range []bool{false, true} {
						store := newSafeStore()
						env := &Env{
							In:         &sliceInput{pages: pagesOf(recs, 32)},
							Store:      store,
							Mem:        newTestBudget(48),
							Ctx:        context.Background(),
							StreamLast: stream,
						}
						if v.noCtx {
							env.Mem = newScriptedBroker(t, 48, 3)
						}
						res, err := ExternalSort(env, cfg)
						if err != nil {
							t.Fatalf("sort: %v", err)
						}
						if (res.Last != nil) != stream {
							t.Fatalf("StreamLast %v: held a last step %v", stream, res.Last != nil)
						}
						if got := sortOutput(t, store, res, env.Mem); !slices.EqualFunc(got, want, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
							t.Fatalf("StreamLast %v: output (%d records) differs from slices.SortFunc (%d records)", stream, len(got), len(want))
						}
						if g := env.Mem.Granted(); g != 0 {
							t.Fatalf("broker still has %d pages granted", g)
						}
					}
				})
			}
		}
	}
}

// TestOneWorkerSpawnsNoGoroutine pins the property the simulator depends on:
// both phases run inline on the caller's goroutine, observed from inside the
// operation's own events (the store here starts no goroutine of its own),
// and the sort leaves none behind.
func TestOneWorkerSpawnsNoGoroutine(t *testing.T) {
	recs := makeRecords(8000, 13)
	base := settledGoroutines()
	seen := map[string]int{}
	phase := ""
	env := &Env{
		In:    &sliceInput{pages: pagesOf(recs, 32)},
		Store: newSafeStore(),
		Mem:   newTestBudget(16),
		Ctx:   context.Background(),
		OnEvent: func(ev Event) {
			if ev.Kind == EvPhase {
				phase = ev.Phase
			}
			seen[phase]++
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines during %q (%v), %d before the sort", n, phase, ev.Kind, base)
			}
		},
	}
	cfg := DefaultConfig()
	cfg.PageRecords = 32
	if _, err := ExternalSort(env, cfg); err != nil {
		t.Fatal(err)
	}
	if seen["split"] < 2 || seen["merge"] < 2 {
		t.Fatalf("events observed per phase: %v, want some in split and merge", seen)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the sort, %d before it", n, base)
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// moving: earlier tests' goroutines may still be on their way out.
func settledGoroutines() int {
	base := runtime.NumGoroutine()
	for still := 0; still < 5; still++ {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != base {
			base, still = n, 0
		}
	}
	return base
}

// TestSplitFollowsGrowAndShrink: the split's one selection adapts to its
// whole target. A script keyed on the split's own appends grows and shrinks
// the budget; from the third append after a change on, the split holds no
// more than the target (the appends in between are the blocks a shrink
// writes out before it yields, and the one already under way). The output
// equals the oracle, and the budget and the store end at zero. The w labels
// are host worker counts the engine never sees: each case reruns the one
// sort through the whole script.
func TestSplitFollowsGrowAndShrink(t *testing.T) {
	const delay = 3 // appends a change may take to be honoured
	recs := payloadRecords(40000, 29)
	want := slices.Clone(recs)
	slices.SortFunc(want, compareRecords)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			budget := newTestBudget(48)
			store := newSafeStore()
			script := map[int]int{12: 12, 30: 40, 48: 6, 66: 48, 84: 9, 102: 30}
			var (
				splitting = true
				changed   = -delay
				changes   int
			)
			store.onAppend = func(_ RunID, nth, _ int) {
				if !splitting {
					return
				}
				if g, tg := budget.Granted(), budget.Target(); g > tg && nth > changed+delay {
					t.Errorf("append %d, %d after the last change: %d pages held on a target of %d", nth, nth-changed, g, tg)
				}
				if target, ok := script[nth]; ok {
					budget.Resize(target)
					changed = nth
					changes++
				}
			}
			env := &Env{
				In: &sliceInput{pages: pagesOf(recs, 32)}, Store: store, Mem: budget, Ctx: context.Background(),
				StreamLast: true,
				OnEvent: func(ev Event) {
					if ev.Kind == EvPhase && ev.Phase != "split" {
						splitting = false
					}
				},
			}
			cfg := DefaultConfig()
			cfg.PageRecords = 32
			res, err := ExternalSort(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if changes != len(script) {
				t.Fatalf("%d of %d budget changes made: want the whole script", changes, len(script))
			}
			budget.Resize(48)
			if got := sortOutput(t, store, res, budget); !slices.EqualFunc(got, want, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
				t.Fatalf("output (%d records) differs from slices.SortFunc (%d records)", len(got), len(want))
			}
			if g := budget.Granted(); g != 0 {
				t.Fatalf("budget still has %d pages granted", g)
			}
		})
	}
}

// TestParallelSuspendResumeMidMerge: a sort's merge runs on the
// operator's goroutine under its whole share, and adapts as any merge does.
// Mid-merge the budget shrinks to 5 pages, below the running step's need.
// Under the suspension strategy the merge must suspend at its next page
// boundary — once — resume when the total is restored and complete
// exactly; dynamic splitting splits the step instead and never suspends.
func TestParallelSuspendResumeMidMerge(t *testing.T) {
	const total = 48
	recs := makeRecords(30000, 3)
	for _, adapt := range []Adapt{Suspend, DynSplit} {
		t.Run(fmt.Sprintf("adapt%d", adapt), func(t *testing.T) {
			budget := newTestBudget(total)
			party := budget.Handle
			store := newSafeStore()
			var (
				mu      sync.Mutex
				merging bool
				shrunk  bool
				events  []Event
			)
			env := &Env{
				In:    &sliceInput{pages: pagesOf(recs, 32)},
				Store: store,
				Mem:   party,
				Ctx:   context.Background(),
				OnEvent: func(ev Event) {
					mu.Lock()
					defer mu.Unlock()
					switch ev.Kind {
					case EvPhase:
						merging = ev.Phase == "merge"
					case EvSuspend, EvResume:
						events = append(events, ev)
						if ev.Kind == EvSuspend {
							budget.Resize(total)
						}
					}
				},
			}
			store.onAppend = func(RunID, int, int) {
				mu.Lock()
				defer mu.Unlock()
				if merging && !shrunk {
					shrunk = true
					budget.Resize(5)
				}
			}
			cfg := SortConfig{
				Method: Repl, BlockPages: 6, Merge: OptMerge,
				Adapt: adapt, PageRecords: 32,
			}
			res, err := ExternalSort(env, cfg)
			if err != nil {
				t.Fatalf("sort: %v", err)
			}
			got := sortOutput(t, store, res, budget)
			checkSorted(t, got)
			checkPermutation(t, recs, got)
			if adapt == DynSplit {
				if !shrunk || len(events) != 0 || res.Stats.Splits == 0 {
					t.Fatalf("shrunk %v, suspension events %+v, %d splits: want splits and no suspension", shrunk, events, res.Stats.Splits)
				}
				return
			}
			if !shrunk || len(events) != 2 || events[0].Kind != EvSuspend || events[1].Kind != EvResume {
				t.Fatalf("shrunk %v, suspension events %+v: want one suspend/resume pair", shrunk, events)
			}
			if res.Stats.Suspensions != 1 {
				t.Fatalf("Stats.Suspensions = %d, want the merge's one", res.Stats.Suspensions)
			}
			if g := budget.Granted(); g != 0 {
				t.Fatalf("broker still has %d pages granted", g)
			}
		})
	}
}

// TestParallelCancelMidMerge cancels a sort in its merge — on the
// operator's goroutine, over every run the split wrote — and requires a
// leak-free abort: every run freed, every page yielded.
func TestParallelCancelMidMerge(t *testing.T) {
	recs := makeRecords(30000, 5)
	budget := newTestBudget(48)
	store := newSafeStore()
	ctx, cancel := context.WithCancel(context.Background())
	var (
		mu           sync.Mutex
		merging      bool
		mergeAppends int
		canceled     bool
	)
	env := &Env{
		In:    &sliceInput{pages: pagesOf(recs, 32)},
		Store: store,
		Mem:   budget,
		Ctx:   ctx,
		OnEvent: func(ev Event) {
			if ev.Kind == EvPhase && ev.Phase == "merge" {
				mu.Lock()
				merging = true
				mu.Unlock()
			}
		},
	}
	store.onAppend = func(id RunID, nth, pages int) {
		mu.Lock()
		defer mu.Unlock()
		if canceled || !merging {
			return
		}
		mergeAppends++
		if mergeAppends > 6 {
			canceled = true
			cancel()
		}
	}
	cfg := DefaultConfig()
	cfg.PageRecords = 32
	_, err := ExternalSort(env, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if live := store.liveRuns(); live != 0 {
		t.Fatalf("aborted sort left %d live runs", live)
	}
	if g := budget.Granted(); g != 0 {
		t.Fatalf("aborted sort left %d pages granted", g)
	}
}

// storedRuns writes n sorted runs the way a MergeExisting caller would:
// straight into the store.
func storedRuns(t *testing.T, env *Env, n, size int) (ids []RunID, all []Record) {
	t.Helper()
	for i := range n {
		recs := makeRecords(size, uint64(100+i))
		sortRecords(recs)
		res, err := WriteRun(&Env{Store: env.Store, In: &sliceInput{pages: pagesOf(recs, 32)}}, 6)
		if err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		ids = append(ids, res.Result)
		all = append(all, recs...)
	}
	return ids, all
}

// TestParallelMergeExistingTree: MergeExisting over 3 runs and over 9 runs,
// each merged twice on fresh stores. Both merges must give the same
// output and the same merge steps, hand back a stored run, and leave
// exactly that run behind.
func TestParallelMergeExistingTree(t *testing.T) {
	for _, n := range []int{3, 9} {
		t.Run(fmt.Sprintf("runs%d", n), func(t *testing.T) {
			merge := func() (*SortResult, []Record, *safeStore) {
				store := newSafeStore()
				env := &Env{Store: store, Mem: newTestBudget(32), Ctx: context.Background()}
				ids, all := storedRuns(t, env, n, 2000)
				cfg := DefaultConfig()
				cfg.PageRecords = 32
				res, err := MergeExisting(env, cfg, ids)
				if err != nil {
					t.Fatalf("merge: %v", err)
				}
				if res.Last != nil {
					t.Fatal("held a last step; want a stored run")
				}
				if live := store.liveRuns(); live != 1 {
					t.Fatalf("store has %d live runs, want 1", live)
				}
				if g := env.Mem.Granted(); g != 0 {
					t.Fatalf("broker still has %d pages granted", g)
				}
				return res, all, store
			}
			first, all, fstore := merge()
			want := fstore.records([]RunID{first.Result})
			checkSorted(t, want)
			checkPermutation(t, all, want)
			again, _, astore := merge()
			if got := astore.records([]RunID{again.Result}); !slices.EqualFunc(got, want, func(a, b Record) bool { return a.Key == b.Key }) {
				t.Fatalf("the second merge's output differs from the first's")
			}
			if again.Stats.MergeSteps != first.Stats.MergeSteps {
				t.Fatalf("%d runs: %d steps, then %d; want one plan",
					n, first.Stats.MergeSteps, again.Stats.MergeSteps)
			}
		})
	}
}

// TestParallelMergeCancelWhileParkedFreesInputs is the regression for the
// abort path the three hand-copied launch loops had drifted on: Merge's
// inputs are consumed even on abort — on a 3-page budget, with
// the cancel landing at the merge's first append, every input run is freed,
// not only the ones the first step read.
func TestParallelMergeCancelWhileParkedFreesInputs(t *testing.T) {
	store := newSafeStore()
	budget := newTestBudget(32)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := &Env{Store: store, Mem: budget, Ctx: ctx}
	ids, _ := storedRuns(t, env, 4, 2000)
	budget.Resize(3)
	first := store.appends + 1 // the merge's first append
	store.onAppend = func(_ RunID, nth, _ int) {
		if nth == first {
			cancel()
		}
	}
	cfg := DefaultConfig()
	cfg.PageRecords = 32
	if _, err := MergeExisting(env, cfg, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if live := store.liveRuns(); live != 0 {
		t.Fatalf("canceled merge left %d live runs; its inputs are consumed even on abort", live)
	}
	if g := budget.Granted(); g != 0 {
		t.Fatalf("canceled merge left %d pages granted", g)
	}
}

// TestParkedWorkerSuspendsOnce: a merge suspends once per shrink below the
// running step's need, and for nothing else. The total is cut from 48 pages
// to the 3-page floor and restored when the merge reports a suspension. "mid" cuts it at
// the merge's first append, so the running step's very next page boundary
// finds it short: the suspension strategy goes through the one suspension
// sequence — exactly one suspension on record and one EvSuspend/EvResume
// pair. "start" cuts it as the merge phase begins, before any step runs:
// the first step is planned to fit the 3 pages, and nothing suspends. Paging
// and dynamic splitting adapt in place and never suspend.
func TestParkedWorkerSuspendsOnce(t *testing.T) {
	const total = 48
	recs := makeRecords(8000, 17)
	for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
		for _, when := range []string{"start", "mid"} {
			t.Run(fmt.Sprintf("a%d_%s", adapt, when), func(t *testing.T) {
				budget := newTestBudget(total)
				party := budget.Handle
				store := newSafeStore()
				var (
					merging, shrunk bool
					events          []Event
				)
				shrink := func() {
					shrunk = true
					budget.Resize(3)
				}
				env := &Env{
					In: &sliceInput{pages: pagesOf(recs, 32)}, Store: store, Mem: party, Ctx: context.Background(),
					OnEvent: func(ev Event) {
						switch ev.Kind {
						case EvPhase:
							if merging = ev.Phase == "merge"; merging && when == "start" {
								shrink()
							}
						case EvSuspend, EvResume:
							events = append(events, ev)
							if ev.Kind == EvSuspend {
								budget.Resize(total)
							}
						}
					},
				}
				store.onAppend = func(RunID, int, int) {
					if merging && !shrunk {
						shrink()
					}
				}
				cfg := SortConfig{
					Method: Repl, BlockPages: 6, Merge: OptMerge,
					Adapt: adapt, PageRecords: 32,
				}
				res, err := ExternalSort(env, cfg)
				if err != nil {
					t.Fatalf("sort: %v", err)
				}
				got := sortOutput(t, store, res, budget)
				checkSorted(t, got)
				checkPermutation(t, recs, got)
				want := 0
				if adapt == Suspend && when == "mid" {
					want = 1
				}
				if !shrunk || len(events) != 2*want || want == 1 && (events[0].Kind != EvSuspend || events[1].Kind != EvResume) {
					t.Fatalf("shrunk %v, suspension events %+v, want %d suspend/resume pair", shrunk, events, want)
				}
				if res.Stats.Suspensions != want {
					t.Fatalf("Stats.Suspensions = %d, want %d", res.Stats.Suspensions, want)
				}
				if g := budget.Granted(); g != 0 {
					t.Fatalf("broker still has %d pages granted", g)
				}
			})
		}
	}
}

// leaveInWindow is the broker of an operator whose sibling holds the whole
// pool, on which that sibling finishes and leaves exactly between the
// operator's "no page" check and its wait — the window a loaded box opens
// by descheduling it there.
type leaveInWindow struct {
	*memarb.Handle
	sibling *memarb.Handle
	once    sync.Once
}

func (b *leaveInWindow) WaitChange(ctx context.Context) error {
	b.once.Do(b.sibling.Leave)
	return b.Handle.WaitChange(ctx)
}

// TestParkedSplitWorkerSeesSiblingLeave: a split on a Pool whose registered
// sibling holds every free page must not lose the wakeup of that sibling's
// departure when it lands between the split's check and its wait — under a
// pool nobody resizes again there is no other. (With a wait "until the next
// change" this test hangs: the one change had already happened.)
func TestParkedSplitWorkerSeesSiblingLeave(t *testing.T) {
	for _, method := range []Method{Quick, Repl} {
		t.Run(fmt.Sprintf("m%d", method), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Method, cfg.PageRecords = method, 32
			split := replSplit
			if method == Quick {
				split = quickSplit
			}
			pool := memarb.New(memarb.Config{Total: 6, Floor: 3, Admission: memarb.QueueWhenFull})
			older, _ := pool.Register(context.Background(), false)
			older.Acquire(6) // all of it: the pool was its alone
			party, _ := pool.Register(context.Background(), false)
			if got := party.Target(); got != 3 || party.Acquire(3) != 0 {
				t.Fatalf("the younger operator has target %d and pages to take, want 3 and none", got)
			}
			recs := makeRecords(1000, 23)
			store := newSafeStore()
			env := &Env{
				In: &sliceInput{pages: pagesOf(recs, cfg.PageRecords)}, Store: store,
				Mem: &leaveInWindow{Handle: party, sibling: older}, Ctx: context.Background(),
			}
			var runs []*runInfo
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				runs, err = split(env, cfg, &SortStats{})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the split slept through its sibling's departure")
			}
			if err != nil {
				t.Fatal(err)
			}
			party.Leave()
			var got []Record
			for _, r := range runs {
				run := store.records([]RunID{r.id})
				checkSorted(t, run)
				got = append(got, run...)
			}
			checkPermutation(t, recs, got)
		})
	}
}

// sortRecords orders records by the engine's comparator (test helper).
func sortRecords(recs []Record) {
	n := len(recs)
	// simple in-place heapsort to avoid importing sort twice in tests
	var down func(i, n int)
	down = func(i, n int) {
		for {
			l, r, s := 2*i+1, 2*i+2, i
			if l < n && Less(recs[s], recs[l]) {
				s = l
			}
			if r < n && Less(recs[s], recs[r]) {
				s = r
			}
			if s == i {
				return
			}
			recs[i], recs[s] = recs[s], recs[i]
			i = s
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i, n)
	}
	for i := n - 1; i > 0; i-- {
		recs[0], recs[i] = recs[i], recs[0]
		down(0, i)
	}
}
