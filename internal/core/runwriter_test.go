package core

import (
	"context"
	"errors"
	"testing"
)

// strictStore enforces the writer's half of the RunStore contract — a second
// Append before the previous token's Wait fails — and counts Free calls per
// run.
type strictStore struct {
	*memStore
	pending *strictToken
	frees   map[RunID]int
	failAt  int // fail the failAt-th Append (1-based; 0 = never)

	pagesTaken int // by the appends that succeeded
}

type strictToken struct{ waited bool }

func (t *strictToken) Wait() error { t.waited = true; return nil }

func newStrictStore() *strictStore {
	return &strictStore{memStore: newMemStore(), frees: map[RunID]int{}}
}

func (s *strictStore) Append(id RunID, pages []Page) (Token, error) {
	if s.pending != nil && !s.pending.waited {
		return nil, errors.New("second write in flight")
	}
	if s.failAt > 0 && s.appends+1 == s.failAt {
		s.appends++
		return nil, errors.New("injected append failure")
	}
	if _, err := s.memStore.Append(id, pages); err != nil {
		return nil, err
	}
	s.pagesTaken += len(pages)
	s.pending = &strictToken{}
	return s.pending, nil
}

func (s *strictStore) Free(id RunID) error {
	s.frees[id]++
	return s.memStore.Free(id)
}

// checkFenced asserts the writer's rule for r: one fence per page, each the
// first key of its page as stored.
func checkFenced(t *testing.T, s *memStore, r *runInfo) {
	t.Helper()
	stored := s.runs[r.id]
	if len(r.fences) != r.pages || r.pages != len(stored) {
		t.Fatalf("%v: %d fences, %d pages, %d pages stored", r, len(r.fences), r.pages, len(stored))
	}
	for i, pg := range stored {
		if r.fences[i] != pg[0].Key {
			t.Fatalf("%v: fence %d = %d, page starts at %d", r, i, r.fences[i], pg[0].Key)
		}
	}
}

// TestRunWriterClients drives every client of the writer against the strict
// store: none may have two writes in flight, every run they leave behind is
// fenced page by page, and nothing else stays live.
func TestRunWriterClients(t *testing.T) {
	recs := makeRecords(3000, 21)
	split := func(method Method, block int) func(*testing.T, *Env) []*runInfo {
		return func(t *testing.T, e *Env) []*runInfo {
			cfg := SortConfig{Method: method, BlockPages: block, PageRecords: 8, MinPages: 3}
			runs, err := splitPhase(e, cfg, &SortStats{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return runs
		}
	}
	merge := func(adapt Adapt, script []targetChange) func(*testing.T, *Env) []*runInfo {
		return func(t *testing.T, e *Env) []*runInfo {
			cfg := SortConfig{Method: Repl, BlockPages: 2, PageRecords: 8, MinPages: 3, Adapt: adapt}
			runs := split(Repl, 2)(t, e)
			b := e.Mem.(*scriptedBroker)
			for _, c := range script { // ticks count from the start of the merge
				b.script = append(b.script, targetChange{b.ticks + c.tick, c.target})
			}
			st := &SortStats{}
			out, err := newMergeEngine(e, cfg, st).mergeRuns(runs)
			if err != nil {
				t.Fatal(err)
			}
			if st.Splits+st.Suspensions+st.ExtraMergeReads == 0 {
				t.Fatalf("the script never made the merge adapt: %+v", *st)
			}
			return []*runInfo{out}
		}
	}
	for name, client := range map[string]func(*testing.T, *Env) []*runInfo{
		"quick":      split(Quick, 1),
		"repl1":      split(Repl, 1),
		"repl6":      split(Repl, 6),
		"merge-dyn":  merge(DynSplit, []targetChange{{100, 4}, {400, 12}, {800, 3}, {1200, 12}}),
		"merge-susp": merge(Suspend, []targetChange{{100, 4}, {400, 12}}),
		"merge-page": merge(Paging, []targetChange{{100, 4}, {400, 12}}),
		"WriteRun": func(t *testing.T, e *Env) []*runInfo {
			sorted := append([]Record(nil), recs...)
			sortRecords(sorted)
			e.In = &sliceInput{pages: pagesOf(sorted, 8)}
			w := runWriter{store: e.Store}
			r, err := newRun(e.Store)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.copyIn(e, r, 6); err != nil {
				t.Fatal(err)
			}
			return []*runInfo{r}
		},
	} {
		t.Run(name, func(t *testing.T) {
			store := newStrictStore()
			env, _, _, _ := testEnv(t, recs, 8, 12, 3)
			env.Store = store
			runs := client(t, env)
			tuples := 0
			for _, r := range runs {
				checkFenced(t, store.memStore, r)
				checkSorted(t, runRecords(t, store.memStore, r.id))
				tuples += r.tuples
			}
			if tuples != len(recs) || store.liveRuns() != len(runs) {
				t.Fatalf("%d tuples in %d runs, %d live; want %d tuples and nothing else live",
					tuples, len(runs), store.liveRuns(), len(recs))
			}
		})
	}
}

// nullStore accepts appends without copying or allocating (a zero-size
// token converts to the interface for free).
type nullStore struct{ RunStore }

type nullToken struct{}

func (nullToken) Wait() error { return nil }

func (*nullStore) Append(RunID, []Page) (Token, error) { return nullToken{}, nil }

// TestRunWriterRecyclesPages: in steady state the fill → in-flight → free
// rotation allocates nothing — no page buffers, no block slices.
func TestRunWriterRecyclesPages(t *testing.T) {
	for _, block := range []int{1, 6} {
		w := runWriter{store: &nullStore{}, recs: 8}
		r := &runInfo{fences: make([]Key, 0, 4096)}
		writeBlock := func() {
			for i := range block * w.recs {
				w.add(Record{Key: Key(i)})
			}
			if n, err := w.flush(r); err != nil || n != block {
				t.Fatalf("flush = %d, %v; want %d pages", n, err, block)
			}
		}
		writeBlock() // warm-up: both rotating blocks get their buffers
		writeBlock()
		if allocs := testing.AllocsPerRun(300, writeBlock); allocs != 0 {
			t.Fatalf("block of %d: %v allocations per flushed block in steady state", block, allocs)
		}
		if r.pages != 303*block || r.tuples != r.pages*w.recs || len(r.fences) != r.pages {
			t.Fatalf("accounting: %d pages, %d tuples, %d fences", r.pages, r.tuples, len(r.fences))
		}
	}
}

// TestRunWriterAbortFreesOnce: abort awaits the write in flight and frees
// the run; further aborts and frees of the same run are no-ops — also when
// WriteRun is what aborts, whatever stopped it.
func TestRunWriterAbortFreesOnce(t *testing.T) {
	store := newStrictStore()
	w := runWriter{store: store, recs: 4}
	r, err := newRun(store)
	if err != nil {
		t.Fatal(err)
	}
	w.add(Record{Key: 1})
	if _, err := w.flush(r); err != nil {
		t.Fatal(err)
	}
	w.abort(r)
	w.abort(r)
	freeRuns(&Env{Store: store}, []*runInfo{r, nil})
	if !store.pending.waited || store.frees[r.id] != 1 {
		t.Fatalf("write awaited: %v, run freed %d times; want true, 1", store.pending.waited, store.frees[r.id])
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// 40 records are five 8-record pages: five appends a page at a time,
	// three in blocks of two (2 + 2 + 1), one in a block of six.
	fivePages := func() Input { return &sliceInput{pages: pagesOf(makeRecords(40, 1), 8)} }
	for name, tc := range map[string]struct {
		in     Input
		ctx    context.Context
		block  int
		failAt int // the append that fails, counted from 1
		pages  int // pages the store had taken when it failed
	}{
		"input error":                {in: &errInput{after: 3}, block: 2},
		"canceled":                   {in: fivePages(), ctx: canceled, block: 6},
		"page 3 of 5 fails":          {in: fivePages(), block: 1, failAt: 3, pages: 2},
		"block 2 of 3 fails":         {in: fivePages(), block: 2, failAt: 2, pages: 2},
		"the short last block fails": {in: fivePages(), block: 2, failAt: 3, pages: 4},
		"the only block fails":       {in: fivePages(), block: 6, failAt: 1, pages: 0},
	} {
		store := newStrictStore()
		store.failAt = tc.failAt
		if _, err := WriteRun(&Env{Store: store, In: tc.in, Ctx: tc.ctx}, tc.block); err == nil {
			t.Fatalf("%s: WriteRun succeeded", name)
		}
		if store.liveRuns() != 0 || store.frees[0] != 1 {
			t.Fatalf("%s: %d live runs, run freed %d times; want 0, 1", name, store.liveRuns(), store.frees[0])
		}
		if tc.failAt > 0 && (store.appends != tc.failAt || store.pagesTaken != tc.pages) {
			t.Fatalf("%s: append %d failed with %d pages written before it; want append %d after %d pages",
				name, store.appends, store.pagesTaken, tc.failAt, tc.pages)
		}
	}
}

// heldStore is a store whose append tokens complete only when the test says
// so, successfully or not.
type heldStore struct {
	*memStore
	toks []*heldToken
}

type heldToken struct{ err error }

func (t *heldToken) Wait() error { return t.err }

func (s *heldStore) Append(id RunID, pages []Page) (Token, error) {
	if _, err := s.memStore.Append(id, pages); err != nil {
		return nil, err
	}
	s.toks = append(s.toks, &heldToken{})
	return s.toks[len(s.toks)-1], nil
}

type releaseFlag bool

func (f *releaseFlag) Release() { *f = true }

// TestRunWriterRetireGenerations pins the two-generation rule for retired
// input pages: a page retired while a block fills is released neither at
// that block's flush nor by the wait for the previous write, only once the
// wait for its own block's write succeeds — and never after a failed write.
func TestRunWriterRetireGenerations(t *testing.T) {
	s := &heldStore{memStore: newMemStore()}
	released := 0
	w := runWriter{store: s, recs: 2, released: &released}
	r, err := newRun(s)
	if err != nil {
		t.Fatal(err)
	}
	var a, b, c releaseFlag
	flush := func() {
		t.Helper()
		if _, err := w.flush(r); err != nil {
			t.Fatal(err)
		}
	}

	w.add(Record{Key: 1})
	w.retire(&a)
	flush() // block 1 in flight, a rides with it
	w.add(Record{Key: 2})
	w.retire(&b)
	if a || b {
		t.Fatal("released at flush, before the write's token was waited for")
	}
	flush() // waits for block 1, then sends block 2
	if !a || b {
		t.Fatalf("after block 1's write completed: a released %v (want true), b released %v (want false)", a, b)
	}
	w.add(Record{Key: 3})
	w.retire(&c)
	s.toks[1].err = errors.New("injected write failure")
	if _, err := w.flush(r); err == nil {
		t.Fatal("flush must report the failed write it waited for")
	}
	if err := w.wait(); err != nil {
		t.Fatalf("nothing in flight after a failed flush, wait said %v", err)
	}
	if b || c {
		t.Fatalf("released after a failed write: b %v, c %v", b, c)
	}
	if released != 1 {
		t.Fatalf("counted %d released pages, want 1: retired pages of a failed write are not released", released)
	}
}
