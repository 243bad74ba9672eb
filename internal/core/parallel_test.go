package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/memarb"
	"github.com/memadapt/masort/internal/randx"
)

// ---- thread-safe test substrate (the serial harness in testenv_test.go is
// deliberately unsynchronized; parallel tests need their own) ----

// testBudget is the real arbiter set up the way masort.NewBudget sets it up
// — one permanently registered operator, 3-page floor, unclamped waits — so
// the crew tests exercise the broker that ships.
type testBudget struct {
	*memarb.Handle
	arb *memarb.Arbiter
}

func newTestBudget(total int) *testBudget {
	arb := memarb.New(memarb.Config{Total: total, Floor: 3})
	h, _ := arb.Register(context.Background(), 0, false)
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
// driver: for every worker count × method × adaptation — W = 1 and the
// no-crewBroker fallback included, all through the same entry — the
// concatenated segments equal slices.SortFunc on (key, payload).
func TestParallelSortMatchesSerial(t *testing.T) {
	recs := payloadRecords(20000, 7)
	want := slices.Clone(recs)
	slices.SortFunc(want, compareRecords)
	type variant struct {
		name    string
		workers int // cfg.Workers
		noCtx   bool
		want    int // Stats.Workers
	}
	variants := []variant{
		{"w1", 1, false, 1}, {"w2", 2, false, 2}, {"w4", 4, false, 4},
		// A broker that cannot divide itself cannot host a crew: one worker.
		{"w4nocb", 4, true, 1},
	}
	for _, method := range []Method{Quick, Repl} {
		for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
			for _, v := range variants {
				t.Run(fmt.Sprintf("m%d_a%d_%s", method, adapt, v.name), func(t *testing.T) {
					cfg := SortConfig{
						Method: method, BlockPages: 6, Merge: OptMerge, Workers: v.workers,
						Adapt: adapt, PageRecords: 32, MinPages: 3,
					}
					store := newSafeStore()
					env := &Env{
						In:    &sliceInput{pages: pagesOf(recs, 32)},
						Store: store,
						Mem:   newTestBudget(48),
						Ctx:   context.Background(),
					}
					if v.noCtx {
						env.Mem = newScriptedBroker(t, 48, 3)
					}
					res, err := ExternalSort(env, cfg)
					if err != nil {
						t.Fatalf("sort: %v", err)
					}
					if res.Stats.Workers != v.want {
						t.Fatalf("Stats.Workers = %d, want %d", res.Stats.Workers, v.want)
					}
					if v.want == 1 && len(res.Segments) != 1 {
						t.Fatalf("one worker produced %d segments", len(res.Segments))
					}
					if got := store.records(res.Segments); !slices.EqualFunc(got, want, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
						t.Fatalf("output (%d records) differs from slices.SortFunc (%d records)", len(got), len(want))
					}
					if live := store.liveRuns(); live != len(res.Segments) {
						t.Fatalf("store has %d live runs, want %d segments", live, len(res.Segments))
					}
					if g := env.Mem.Granted(); g != 0 {
						t.Fatalf("broker still has %d pages granted", g)
					}
				})
			}
		}
	}
}

// TestOneWorkerSpawnsNoGoroutine pins the property the simulator depends on:
// at W = 1 both phases run inline on the caller's goroutine, observed from
// inside the operation's own events — and, at W = 2, that the workers are
// all a crew costs: each phase runs on exactly W goroutines above the
// baseline (the store here starts none of its own) and leaves none behind.
func TestOneWorkerSpawnsNoGoroutine(t *testing.T) {
	recs := makeRecords(8000, 13)
	for _, workers := range []int{0, 1, 2} {
		extra := 0 // goroutines a phase may run above the baseline
		if workers > 1 {
			extra = workers
		}
		// Earlier tests' workers may still be on their way out: take the
		// baseline once the count has stopped moving.
		base := runtime.NumGoroutine()
		for still := 0; still < 5; still++ {
			time.Sleep(time.Millisecond)
			if n := runtime.NumGoroutine(); n != base {
				base, still = n, 0
			}
		}
		// A worker's goroutine may still be on its way out when the phase
		// driver's WaitGroup lets go of it.
		drain := func() {
			for i := 0; runtime.NumGoroutine() > base && i < 1000; i++ {
				time.Sleep(time.Millisecond)
			}
		}
		seen, peak := map[string]int{}, map[string]int{}
		phase := ""
		store := newSafeStore()
		if workers > 1 {
			// Whether an event fires while all W workers are alive must not be
			// left to the scheduler (on a loaded box one worker can finish a
			// phase before its sibling has started): each phase's first W
			// appends — one per worker, a held worker appends no second — wait
			// for one another. Every worker still owes an event after its first
			// append (run-done, step-done), so the first of those finds all W
			// alive. phase is the coordinator's, written between crews.
			var mu sync.Mutex
			arrived := map[string]int{}
			all := map[string]chan struct{}{"split": make(chan struct{}), "merge": make(chan struct{})}
			store.gate = func([]Page) {
				mu.Lock()
				arrived[phase]++
				n := arrived[phase]
				mu.Unlock()
				if n == workers {
					close(all[phase])
				}
				if n <= workers {
					<-all[phase]
				}
			}
		}
		env := &Env{
			In:    &sliceInput{pages: pagesOf(recs, 32)},
			Store: store,
			Mem:   newTestBudget(16),
			Ctx:   context.Background(),
			OnEvent: func(ev Event) {
				if ev.Kind == EvPhase {
					phase = ev.Phase
					drain() // the last phase's crew is no part of this one
				}
				seen[phase]++
				n := runtime.NumGoroutine()
				peak[phase] = max(peak[phase], n)
				if n > base+extra {
					t.Errorf("Workers=%d: %d goroutines during %q (%v), %d before the sort", workers, n, phase, ev.Kind, base)
				}
			},
		}
		cfg := DefaultConfig()
		cfg.PageRecords = 32
		cfg.Workers = workers
		if _, err := ExternalSort(env, cfg); err != nil {
			t.Fatal(err)
		}
		if seen["split"] < 2 || seen["merge"] < 2 {
			t.Fatalf("events observed per phase: %v, want some in split and merge", seen)
		}
		if peak["split"] != base+extra || peak["merge"] != base+extra {
			t.Fatalf("Workers=%d: goroutine peaks per phase %v, want %d in split and merge", workers, peak, base+extra)
		}
		drain()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("Workers=%d: %d goroutines after the sort, %d before it", workers, n, base)
		}
	}
}

// TestWorkerEnvInheritsByDefault: a worker Env is a copy of the parent with a
// fixed override list, so a field added to Env reaches the workers without
// anyone remembering to copy it. Every other exported field must be equal
// (funcs by identity), and the unexported per-operation state must be reset.
func TestWorkerEnvInheritsByDefault(t *testing.T) {
	overridden := map[string]bool{"Mem": true, "Worker": true, "OnEvent": true, "SetPhase": true, "SetReclaim": true}
	parent := &Env{
		In:               &sliceInput{},
		Store:            newSafeStore(),
		Mem:              newTestBudget(12),
		Meter:            newCountingMeter(),
		Ctx:              context.Background(),
		Now:              func() time.Duration { return 0 },
		SetPhase:         func(string) {},
		SetReclaim:       func(func(int) int) {},
		OnEvent:          func(Event) {},
		ClassicSelection: true,
		stepSeq:          7,
		eventPanics:      2,
	}
	shares := parent.Mem.(crewBroker).Divide(2, 3)
	c := &crew{}
	c.steps.Store(int64(parent.stepSeq))
	we := c.workerEnv(parent, shares[1], 1)

	pv, wv := reflect.ValueOf(parent).Elem(), reflect.ValueOf(we).Elem()
	for i := range pv.NumField() {
		f := pv.Type().Field(i)
		if !f.IsExported() || overridden[f.Name] {
			continue
		}
		if pv.Field(i).IsZero() {
			t.Errorf("test does not set Env.%s, so it cannot tell whether workers inherit it", f.Name)
		}
		a, b := pv.Field(i), wv.Field(i)
		if f.Type.Kind() == reflect.Func {
			if a.Pointer() != b.Pointer() {
				t.Errorf("worker Env.%s is not the parent's func", f.Name)
			}
		} else if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			t.Errorf("worker Env.%s = %v, parent has %v", f.Name, b.Interface(), a.Interface())
		}
	}
	if we.Mem != Broker(shares[1]) || we.Worker != 2 || we.OnEvent == nil {
		t.Errorf("worker overrides missing: Mem %T, Worker %d, OnEvent set %v", we.Mem, we.Worker, we.OnEvent != nil)
	}
	if we.SetPhase != nil || we.SetReclaim != nil || we.stepSeq != 0 || we.eventPanics != 0 || we.stepFn == nil {
		t.Errorf("worker Env kept coordinator-only state: %+v", we)
	}
	if a, b := we.nextStep(), c.workerEnv(parent, shares[0], 0).nextStep(); a != 8 || b != 9 {
		t.Errorf("workers number steps %d, %d; want the operation-wide 8, 9", a, b)
	}
}

// TestParallelShrinkPropagatesToAllWorkers is the satellite-2 regression: a
// budget shrink arriving mid-parallel-merge must reach every worker at its
// next output-page boundary, not just one of them. A worker may have one
// output page already in flight when the shrink lands, so from each
// worker's second post-shrink append onward the crew must collectively hold
// no more than the new target.
func TestParallelShrinkPropagatesToAllWorkers(t *testing.T) {
	const (
		total     = 48
		newTarget = 24
		workers   = 4
	)
	recs := makeRecords(40000, 11)
	budget := newTestBudget(total)
	store := newSafeStore()

	type obs struct {
		id      RunID
		granted int
	}
	var (
		obsMu        sync.Mutex
		log          []obs
		shrunk       bool
		merging      bool
		mergeAppends int
	)
	env := &Env{
		In:    &sliceInput{pages: pagesOf(recs, 32)},
		Store: store,
		Mem:   budget,
		Ctx:   context.Background(),
		OnEvent: func(ev Event) {
			if ev.Kind == EvPhase && ev.Phase == "merge" {
				obsMu.Lock()
				merging = true
				obsMu.Unlock()
			}
		},
	}
	store.onAppend = func(id RunID, nth, pages int) {
		obsMu.Lock()
		defer obsMu.Unlock()
		if !merging {
			return
		}
		mergeAppends++
		if !shrunk {
			// Let the parallel merge produce a few output pages at full
			// budget, then shrink.
			if mergeAppends > 4 {
				shrunk = true
				budget.Resize(newTarget)
			}
			return
		}
		log = append(log, obs{id: id, granted: budget.Granted()})
	}

	cfg := DefaultConfig()
	cfg.PageRecords = 32
	cfg.Workers = workers
	res, err := ExternalSort(env, cfg)
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	if len(res.Segments) < 2 {
		t.Fatalf("expected a parallel merge with >1 segment, got %d", len(res.Segments))
	}

	obsMu.Lock()
	defer obsMu.Unlock()
	if !shrunk {
		t.Fatal("shrink never triggered")
	}
	// Find each segment's second post-shrink append; after the last of
	// those, every worker has passed an adaptation point and the crew must
	// be within the new target for the rest of the merge.
	seen := map[RunID]int{}
	settle := -1
	for i, o := range log {
		seen[o.id]++
		if seen[o.id] == 2 {
			settle = i
		}
	}
	if settle < 0 || settle >= len(log)-1 {
		t.Fatalf("merge finished too fast to observe propagation (%d post-shrink appends)", len(log))
	}
	for _, o := range log[settle+1:] {
		if o.granted > newTarget {
			t.Fatalf("after every worker's page boundary, crew still holds %d > new target %d", o.granted, newTarget)
		}
	}
}

// TestParallelSuspendResumeMidMerge shrinks the budget mid-merge so far that
// it sustains two of the four workers, then restores it once a worker has
// stopped: the merge must resume and complete with suspensions on record.
//
// The four key partitions are roughly the quartiles, so an append's keys say
// whose it is. The cut to 6 pages comes from an append of worker 3 or 4 (keys
// past the 60th percentile), and workers 1 and 2 are held early in their
// partitions until the restore — so the cutting worker finds itself parked
// at its next page boundary however the scheduler orders the four.
func TestParallelSuspendResumeMidMerge(t *testing.T) {
	const total = 48
	recs := makeRecords(30000, 3)
	sorted := slices.Clone(recs)
	sortRecords(sorted)
	pct := func(p int) Key { return sorted[len(sorted)*p/100].Key }
	for _, adapt := range []Adapt{Suspend, DynSplit} {
		t.Run(fmt.Sprintf("adapt%d", adapt), func(t *testing.T) {
			budget := newTestBudget(total)
			store := newSafeStore()
			var (
				mu      sync.Mutex
				merging bool
				shrunk  bool
			)
			restored := make(chan struct{})
			env := &Env{
				In:    &sliceInput{pages: pagesOf(recs, 32)},
				Store: store,
				Mem:   budget,
				Ctx:   context.Background(),
				OnEvent: func(ev Event) {
					mu.Lock()
					defer mu.Unlock()
					switch {
					case ev.Kind == EvPhase:
						merging = ev.Phase == "merge"
					case ev.Kind == EvSuspend && shrunk:
						select {
						case <-restored:
						default:
							budget.Resize(total)
							close(restored)
						}
					}
				},
			}
			store.gate = func(pages []Page) {
				k := pages[0][0].Key
				mu.Lock()
				if merging && !shrunk && k >= pct(60) {
					// 6 pages sustain at most two 3-page workers: ranks 2
					// and 3 must stop until the restore above.
					shrunk = true
					budget.Resize(6)
				}
				hold := merging && (k >= pct(5) && k < pct(10) || k >= pct(30) && k < pct(35))
				mu.Unlock()
				if hold {
					<-restored
				}
			}
			cfg := SortConfig{
				Method: Repl, BlockPages: 6, Merge: OptMerge,
				Adapt: adapt, PageRecords: 32, MinPages: 3, Workers: 4,
			}
			res, err := ExternalSort(env, cfg)
			if err != nil {
				t.Fatalf("sort: %v", err)
			}
			got := store.records(res.Segments)
			checkSorted(t, got)
			checkPermutation(t, recs, got)
			if res.Stats.Suspensions == 0 {
				t.Fatal("expected at least one suspension/pause during the shrink window")
			}
			if g := budget.Granted(); g != 0 {
				t.Fatalf("broker still has %d pages granted", g)
			}
		})
	}
}

// TestParallelCancelMidMerge cancels mid-parallel-merge and requires a
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
	cfg.Workers = 4
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

// fencelessRuns writes n sorted runs the way a MergeExisting caller would:
// straight into the store, with no fences on record.
func fencelessRuns(t *testing.T, env *Env, n, size int) (ids []RunID, all []Record) {
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

// TestParallelMergeExistingTree drives the fence-less paths of the merge
// phase at Workers=3: 9 runs go through the merge tree, 3 runs are below its
// threshold and merge as one partition. Both must equal the one-worker
// output and leave exactly the result run behind.
func TestParallelMergeExistingTree(t *testing.T) {
	for _, n := range []int{3, 9} {
		t.Run(fmt.Sprintf("runs%d", n), func(t *testing.T) {
			merge := func(workers int) (*SortResult, []Record, *safeStore) {
				store := newSafeStore()
				env := &Env{Store: store, Mem: newTestBudget(32), Ctx: context.Background()}
				ids, all := fencelessRuns(t, env, n, 2000)
				cfg := DefaultConfig()
				cfg.PageRecords = 32
				cfg.Workers = workers
				res, err := MergeExisting(env, cfg, ids)
				if err != nil {
					t.Fatalf("merge at %d workers: %v", workers, err)
				}
				if res.Stats.Workers != workers || len(res.Segments) != 1 {
					t.Fatalf("Stats.Workers = %d, %d segments; want %d, 1", res.Stats.Workers, len(res.Segments), workers)
				}
				if live := store.liveRuns(); live != 1 {
					t.Fatalf("store has %d live runs at %d workers, want 1", live, workers)
				}
				if g := env.Mem.Granted(); g != 0 {
					t.Fatalf("broker still has %d pages granted", g)
				}
				return res, all, store
			}
			serial, all, sstore := merge(1)
			want := sstore.records(serial.Segments)
			checkSorted(t, want)
			checkPermutation(t, all, want)
			par, _, pstore := merge(3)
			if got := pstore.records(par.Segments); !slices.EqualFunc(got, want, func(a, b Record) bool { return a.Key == b.Key }) {
				t.Fatalf("output at 3 workers differs from the one-worker output")
			}
			if tree := par.Stats.MergeSteps > serial.Stats.MergeSteps; tree != (n >= 4) {
				t.Fatalf("%d runs: %d steps at 3 workers vs %d at one; merge tree expected: %v",
					n, par.Stats.MergeSteps, serial.Stats.MergeSteps, n >= 4)
			}
		})
	}
}

// TestParallelMergeCancelWhileParkedFreesInputs is the regression for the
// abort path the three hand-copied launch loops had drifted on: Merge's
// inputs are consumed even on abort, including the group of a worker the
// crew parked before it ever started. A 3-page budget sustains one of the
// two workers; the cancel lands while the other is still parked.
func TestParallelMergeCancelWhileParkedFreesInputs(t *testing.T) {
	store := newSafeStore()
	budget := newTestBudget(32)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := &Env{Store: store, Mem: budget, Ctx: ctx}
	ids, _ := fencelessRuns(t, env, 4, 2000)
	budget.Resize(3)
	first := store.appends + 1 // the merge's first append
	store.onAppend = func(_ RunID, nth, _ int) {
		if nth == first {
			cancel()
		}
	}
	cfg := DefaultConfig()
	cfg.PageRecords = 32
	cfg.Workers = 2
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

// TestParkedWorkerSuspendsOnce: a worker the crew parks — before its first
// step or in the middle of one, under every adaptation strategy — goes
// through the one suspension sequence: exactly one suspension on record and
// one EvSuspend/EvResume pair carrying its Worker id. The budget is cut to 5
// pages (one 3-page worker) and restored when worker 2 reports parked.
//
// Which worker an append belongs to is read off its keys: the two partitions
// meet near the median key. "start" cuts the budget before the crew exists;
// "mid" cuts it from worker 2's own append three quarters through the key
// space, so its very next page boundary finds it parked. Either way worker 1
// is held at the first quartile until then — it may not finish and hand its
// rank down first, however the scheduler orders the two — and the "mid" cut
// waits for that hold: a worker 1 still short of it would meet the 5 pages at
// a page boundary of its own and, under the suspension strategy, rightly
// suspend for want of them.
func TestParkedWorkerSuspendsOnce(t *testing.T) {
	const total = 48
	recs := makeRecords(20000, 17)
	sorted := slices.Clone(recs)
	sortRecords(sorted)
	q25, q40, q75 := sorted[len(sorted)/4].Key, sorted[len(sorted)*2/5].Key, sorted[len(sorted)*3/4].Key
	for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
		for _, when := range []string{"start", "mid"} {
			t.Run(fmt.Sprintf("a%d_%s", adapt, when), func(t *testing.T) {
				budget := newTestBudget(total)
				store := newSafeStore()
				var (
					mu      sync.Mutex
					merging bool
					shrunk  bool
					events  []Event
				)
				parked, held := make(chan struct{}), make(chan struct{})
				var holdOnce sync.Once
				env := &Env{
					In: &sliceInput{pages: pagesOf(recs, 32)}, Store: store, Mem: budget, Ctx: context.Background(),
					OnEvent: func(ev Event) {
						mu.Lock()
						defer mu.Unlock()
						switch ev.Kind {
						case EvPhase:
							if merging = ev.Phase == "merge"; merging && when == "start" {
								shrunk = true
								budget.Resize(5)
							}
						case EvSuspend, EvResume:
							events = append(events, ev)
							if ev.Kind == EvSuspend && ev.Worker == 2 {
								budget.Resize(total)
								close(parked)
							}
						}
					},
				}
				store.gate = func(pages []Page) {
					k := pages[0][0].Key
					mu.Lock()
					cut := merging && !shrunk && k >= q75
					hold := merging && k >= q25 && k < q40
					mu.Unlock()
					if cut {
						<-held
						mu.Lock()
						shrunk = true
						budget.Resize(5)
						mu.Unlock()
					}
					if hold {
						holdOnce.Do(func() { close(held) })
						<-parked
					}
				}
				cfg := SortConfig{
					Method: Repl, BlockPages: 6, Merge: OptMerge,
					Adapt: adapt, PageRecords: 32, MinPages: 3, Workers: 2,
				}
				res, err := ExternalSort(env, cfg)
				if err != nil {
					t.Fatalf("sort: %v", err)
				}
				got := store.records(res.Segments)
				checkSorted(t, got)
				checkPermutation(t, recs, got)
				if len(events) != 2 || events[0].Kind != EvSuspend || events[1].Kind != EvResume ||
					events[0].Worker != 2 || events[1].Worker != 2 {
					t.Fatalf("suspension events %+v, want one suspend/resume pair from worker 2", events)
				}
				if res.Stats.Suspensions != 1 {
					t.Fatalf("Stats.Suspensions = %d, want exactly the parked worker's one", res.Stats.Suspensions)
				}
			})
		}
	}
}

// leaveInWindow is a parked worker's broker on which the lower-ranked sibling
// finishes and leaves exactly between the worker's "no page" check and its
// wait — the window a loaded box opens by descheduling the worker there.
type leaveInWindow struct {
	*memarb.Handle
	sibling *memarb.Handle
	once    sync.Once
}

func (b *leaveInWindow) WaitChangeCtx(ctx context.Context) error {
	b.once.Do(b.sibling.Leave)
	return b.Handle.WaitChangeCtx(ctx)
}

// TestParkedSplitWorkerSeesSiblingLeave: a split worker the crew parked must
// not lose the wakeup of its sibling's departure when that lands between its
// check and its wait — under a budget nobody resizes again there is no other.
// (At the parent of the change that added it this test hangs: the wait was
// "until the next change", and the one change had already happened.)
func TestParkedSplitWorkerSeesSiblingLeave(t *testing.T) {
	for _, method := range []Method{Quick, Repl} {
		t.Run(fmt.Sprintf("m%d", method), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Method, cfg.PageRecords = method, 32
			split := replSplit
			if method == Quick {
				split = quickSplit
			}
			budget := newTestBudget(8)
			shares := budget.Divide(2, 6) // 8 pages sustain one worker of 6: rank 1 is parked
			if got := shares[1].Target(); got != 0 {
				t.Fatalf("second worker has target %d, want 0 (parked)", got)
			}
			recs := makeRecords(1000, 23)
			store := newSafeStore()
			env := &Env{
				In: &sliceInput{pages: pagesOf(recs, cfg.PageRecords)}, Store: store,
				Mem: &leaveInWindow{Handle: shares[1], sibling: shares[0]}, Ctx: context.Background(),
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
				t.Fatal("parked worker slept through its sibling's departure")
			}
			if err != nil {
				t.Fatal(err)
			}
			shares[1].Leave()
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

// TestCrewShares pins the deterministic share arithmetic of the sub-handles
// a crew works through: the target divides among the lowest-ranked live
// workers that can each hold minNeed pages, remainder to the lowest ranks,
// recomputed from the live target on every call.
func TestCrewShares(t *testing.T) {
	budget := newTestBudget(32)
	shares := budget.Divide(4, 3)
	check := func(when string, want ...int) {
		t.Helper()
		for id, w := range want {
			if got := shares[id].Target(); got != w {
				t.Fatalf("share(%d) = %d, want %d %s", id, got, w, when)
			}
		}
	}
	check("at target 32", 8, 8, 8, 8)
	budget.Resize(34) // remainder 2 goes to the two lowest ranks
	check("at target 34", 9, 9, 8, 8)
	budget.Resize(7) // only two workers can hold minNeed=3: ranks 2,3 pause
	check("at target 7", 4, 3, 0, 0)
	shares[0].Leave() // rank improves: worker 1 becomes rank 0, worker 2 resumes
	check("after worker 0 left", 0, 4, 3, 0)
}

// TestCrewSharePartitionGrid pins the partition over a (target, live set,
// minNeed) grid against the rule written out longhand: the lowest-ranked
// live workers that can each hold minNeed pages (at least one of them) are
// active and split the target exactly, base share plus one remainder page to
// each of the lowest ranks; everyone else — parked or gone — gets 0. The
// arbiter has no floor here, so the grid reaches the targets below MinPages
// that no real operator is ever entitled to.
func TestCrewSharePartitionGrid(t *testing.T) {
	const workers = 4
	for _, minNeed := range []int{0, 1, 3, 5} {
		for liveSet := 1; liveSet < 1<<workers; liveSet++ {
			arb := memarb.New(memarb.Config{Total: 41})
			op, _ := arb.Register(context.Background(), 0, false)
			shares := op.Divide(workers, minNeed)
			live := make([]bool, workers)
			nlive := 0
			for id := range live {
				if live[id] = liveSet&(1<<id) != 0; live[id] {
					nlive++
				} else {
					shares[id].Leave()
				}
			}
			for target := 0; target <= 41; target++ {
				arb.Resize(target)
				active := nlive
				if minNeed > 0 {
					active = min(active, target/minNeed)
				}
				active = max(active, 1)
				sum, rank := 0, 0
				for id := range workers {
					want := 0
					if live[id] {
						if rank < active {
							want = target / active
							if rank < target%active {
								want++
							}
						}
						rank++
					}
					got := shares[id].Target()
					if got != want {
						t.Fatalf("minNeed %d live %04b target %d: share(%d) = %d, want %d",
							minNeed, liveSet, target, id, got, want)
					}
					if got > 0 && got < minNeed && target >= minNeed {
						t.Fatalf("minNeed %d live %04b target %d: active worker %d holds only %d",
							minNeed, liveSet, target, id, got)
					}
					sum += got
				}
				if sum != target {
					t.Fatalf("minNeed %d live %04b target %d: shares sum to %d",
						minNeed, liveSet, target, sum)
				}
			}
		}
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
