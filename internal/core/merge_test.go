package core

import (
	"errors"
	"fmt"
	"testing"
)

// mkRuns writes n synthetic sorted runs of the given page counts into the
// store, with globally interleaved keys so merging is non-trivial.
func mkRuns(t *testing.T, store *memStore, pageRecs int, pages []int) ([]*runInfo, []Record) {
	t.Helper()
	var runs []*runInfo
	var all []Record
	for ri, np := range pages {
		var recs []Record
		for i := 0; i < np*pageRecs; i++ {
			recs = append(recs, Record{Key: uint64(i*len(pages) + ri)})
		}
		r, err := newRun(store)
		if err != nil {
			t.Fatal(err)
		}
		w := runWriter{store: store}
		if err := w.append(r, pagesOf(recs, pageRecs)); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
		all = append(all, recs...)
	}
	return runs, all
}

func mergeWith(t *testing.T, cfg SortConfig, broker *scriptedBroker, store *memStore, runs []*runInfo) (*runInfo, *SortStats) {
	t.Helper()
	st := &SortStats{}
	env := &Env{Store: store, Mem: broker, Meter: newCountingMeter()}
	m := newMergeEngine(env, cfg, st)
	// Invariant: every run entering a merge step — split output or merge
	// intermediate — was written by the engine, so it is fenced page by page.
	env.OnEvent = func(ev Event) {
		if ev.Kind != EvStepDone {
			return
		}
		step := m.active
		if step == nil {
			step = m.curStep
		}
		for _, r := range step.inputs {
			if len(r.fences) != r.pages {
				t.Errorf("step %d input %v has %d fences", ev.Step, r, len(r.fences))
			}
		}
	}
	out, err := m.mergeRuns(runs)
	if err != nil {
		t.Fatal(err)
	}
	checkFenced(t, store, out)
	return out, st
}

// TestStaticPlanMatchesFigure1 reproduces the paper's Figure 1 example:
// 10 runs, 8 buffer pages.
func TestStaticPlanMatchesFigure1(t *testing.T) {
	for _, tc := range []struct {
		strat     MergeStrategy
		wantSteps int
		firstFan  int
	}{
		{NaiveMerge, 2, 7}, // R1..R7 then {R1-7,R8,R9,R10}
		{OptMerge, 2, 4},   // R1..R4 then {R1-4,R5..R10}
	} {
		store := newMemStore()
		runs, all := mkRuns(t, store, 4, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
		broker := newScriptedBroker(t, 8, 3)
		cfg := SortConfig{Method: Quick, Merge: tc.strat, Adapt: Suspend, PageRecords: 4, MinPages: 3, BlockPages: 1}
		out, st := mergeWith(t, cfg, broker, store, runs)
		if st.MergeSteps != tc.wantSteps {
			t.Fatalf("strategy %v: steps = %d, want %d", tc.strat, st.MergeSteps, tc.wantSteps)
		}
		got := runRecords(t, store, out.id)
		checkSorted(t, got)
		checkPermutation(t, all, got)
	}
}

// TestDynamicSplitMatchesFigure2 drives the paper's Figure 2: a 10-run
// merge with 11 buffers is hit by a shrink to 8 pages; dynamic splitting
// with optimized merging must split off a 4-run preliminary step.
func TestDynamicSplitMatchesFigure2(t *testing.T) {
	store := newMemStore()
	runs, all := mkRuns(t, store, 4, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	broker := newScriptedBroker(t, 11, 3)
	broker.script = []targetChange{{60, 8}} // shrink mid-merge
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 4, MinPages: 3, BlockPages: 1}
	out, st := mergeWith(t, cfg, broker, store, runs)
	if st.Splits < 1 {
		t.Fatalf("expected a dynamic split, got %d", st.Splits)
	}
	got := runRecords(t, store, out.id)
	checkSorted(t, got)
	checkPermutation(t, all, got)
}

// TestDynamicCombineMatchesFigure3 drives Figure 3: shrink forces a split,
// growth back to 11 pages lets the sort combine the preliminary step into
// the final merge again (drain then absorb).
func TestDynamicCombineMatchesFigure3(t *testing.T) {
	store := newMemStore()
	runs, all := mkRuns(t, store, 4, []int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8})
	broker := newScriptedBroker(t, 11, 3)
	broker.script = []targetChange{{40, 8}, {120, 11}}
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 4, MinPages: 3, BlockPages: 1}
	out, st := mergeWith(t, cfg, broker, store, runs)
	if st.Splits < 1 {
		t.Fatalf("expected a split, got %d", st.Splits)
	}
	if st.Combines < 1 {
		t.Fatalf("expected a combine after growth, got %d", st.Combines)
	}
	got := runRecords(t, store, out.id)
	checkSorted(t, got)
	checkPermutation(t, all, got)
}

// TestDrainAbortOnShrink: memory grows (combine starts draining) then
// shrinks again before the drain finishes — the engine must fall back to
// the preliminary step and still merge correctly.
func TestDrainAbortOnShrink(t *testing.T) {
	store := newMemStore()
	runs, all := mkRuns(t, store, 4, []int{4, 4, 4, 4, 4, 4, 4, 4})
	broker := newScriptedBroker(t, 9, 3)
	broker.script = []targetChange{
		{30, 5},  // split
		{120, 9}, // combine starts draining
		{150, 4}, // abort drain
		{400, 9}, // recover
	}
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 4, MinPages: 3, BlockPages: 1}
	out, _ := mergeWith(t, cfg, broker, store, runs)
	got := runRecords(t, store, out.id)
	checkSorted(t, got)
	checkPermutation(t, all, got)
}

// TestRepeatedSplitsToMinimum: the target collapses to the floor; splitting
// must recurse to binary merges and still terminate.
func TestRepeatedSplitsToMinimum(t *testing.T) {
	store := newMemStore()
	runs, all := mkRuns(t, store, 4, []int{2, 3, 1, 4, 2, 3, 1, 2, 3, 2, 1, 2})
	broker := newScriptedBroker(t, 16, 3)
	broker.script = []targetChange{{10, 3}}
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 4, MinPages: 3, BlockPages: 1}
	out, st := mergeWith(t, cfg, broker, store, runs)
	if st.Splits < 3 {
		t.Fatalf("floor target must force repeated splits, got %d", st.Splits)
	}
	got := runRecords(t, store, out.id)
	checkSorted(t, got)
	checkPermutation(t, all, got)
}

// TestSuspensionRefetchesBatch: after resume, all input buffers are
// re-read (counted as extra merge reads).
func TestSuspensionRefetchesBatch(t *testing.T) {
	store := newMemStore()
	runs, all := mkRuns(t, store, 4, []int{6, 6, 6, 6})
	broker := newScriptedBroker(t, 5, 3)
	broker.script = []targetChange{{40, 3}, {80, 5}}
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: Suspend, PageRecords: 4, MinPages: 3, BlockPages: 1}
	out, st := mergeWith(t, cfg, broker, store, runs)
	if st.Suspensions == 0 {
		t.Fatal("expected suspension")
	}
	if st.ExtraMergeReads == 0 {
		t.Fatal("resume must re-read input buffers")
	}
	got := runRecords(t, store, out.id)
	checkSorted(t, got)
	checkPermutation(t, all, got)
}

// TestPagingNeverExceedsBudget: residency stays within the target while
// paging, even as the target drops.
func TestPagingNeverExceedsBudget(t *testing.T) {
	store := newMemStore()
	runs, all := mkRuns(t, store, 4, []int{5, 5, 5, 5, 5, 5})
	broker := newScriptedBroker(t, 7, 3)
	broker.script = []targetChange{{25, 4}, {200, 7}, {300, 3}}
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: Paging, PageRecords: 4, MinPages: 3, BlockPages: 1}
	out, st := mergeWith(t, cfg, broker, store, runs)
	if st.ExtraMergeReads == 0 {
		t.Fatal("paging under pressure must fault")
	}
	got := runRecords(t, store, out.id)
	checkSorted(t, got)
	checkPermutation(t, all, got)
	if broker.granted > broker.total {
		t.Fatal("over-granted")
	}
}

// failStore injects an error on the nth read.
type failStore struct {
	*memStore
	failAt int
	reads  int
}

func (f *failStore) ReadAsync(id RunID, page int) PageToken {
	f.reads++
	if f.reads == f.failAt {
		return instantPageToken{err: errors.New("injected read failure")}
	}
	return f.memStore.ReadAsync(id, page)
}

func TestMergePropagatesReadErrors(t *testing.T) {
	for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
		mem := newMemStore()
		runs, _ := mkRuns(t, mem, 4, []int{3, 3, 3, 3})
		store := &failStore{memStore: mem, failAt: 5}
		broker := newScriptedBroker(t, 8, 3)
		st := &SortStats{}
		env := &Env{Store: store, Mem: broker, Meter: newCountingMeter()}
		m := newMergeEngine(env, SortConfig{
			Method: Quick, Merge: OptMerge, Adapt: adapt, PageRecords: 4, MinPages: 3, BlockPages: 1,
		}, st)
		if _, err := m.mergeRuns(runs); err == nil {
			t.Fatalf("adapt %v: injected read error must propagate", adapt)
		}
	}
}

type failAppendStore struct {
	*memStore
	failAt  int
	appends int
}

func (f *failAppendStore) Append(id RunID, pages []Page) (Token, error) {
	f.appends++
	if f.appends == f.failAt {
		return nil, errors.New("injected append failure")
	}
	return f.memStore.Append(id, pages)
}

func TestSortPropagatesWriteErrors(t *testing.T) {
	recs := makeRecords(2000, 3)
	for _, failAt := range []int{1, 10, 40} {
		mem := newMemStore()
		store := &failAppendStore{memStore: mem, failAt: failAt}
		broker := newScriptedBroker(t, 10, 3)
		env := &Env{
			In:    &sliceInput{pages: pagesOf(recs, 8)},
			Store: store, Mem: broker, Meter: newCountingMeter(),
		}
		cfg := DefaultConfig()
		cfg.PageRecords = 8
		if _, err := ExternalSort(env, cfg); err == nil {
			t.Fatalf("failAt=%d: injected append error must propagate", failAt)
		}
	}
}

// TestMergeRunsManyTinyRuns stresses plans with hundreds of single-page
// runs against a small target.
func TestMergeRunsManyTinyRuns(t *testing.T) {
	store := newMemStore()
	pages := make([]int, 150)
	for i := range pages {
		pages[i] = 1
	}
	runs, all := mkRuns(t, store, 4, pages)
	for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
		for _, strat := range []MergeStrategy{NaiveMerge, OptMerge} {
			// Fresh cursors each round.
			rcopies := make([]*runInfo, len(runs))
			for i, r := range runs {
				rc := *r
				rc.bufs, rc.wsValid, rc.page, rc.pos, rc.hiLoaded, rc.freed = nil, false, 0, 0, 0, false
				rcopies[i] = &rc
			}
			store2 := newMemStore()
			// Re-materialize runs in a fresh store so Free bookkeeping works.
			for i := range rcopies {
				id, _ := store2.Create()
				_, _ = store2.Append(id, store.runs[runs[i].id])
				rcopies[i].id = id
			}
			broker := newScriptedBroker(t, 6, 3)
			cfg := SortConfig{Method: Quick, Merge: strat, Adapt: adapt, PageRecords: 4, MinPages: 3, BlockPages: 1}
			out, st := mergeWith(t, cfg, broker, store2, rcopies)
			got := runRecords(t, store2, out.id)
			checkSorted(t, got)
			checkPermutation(t, all, got)
			if st.MergeSteps < 30 {
				t.Fatalf("%v/%v: expected many steps for 150 runs at fan-in 5, got %d",
					adapt, strat, st.MergeSteps)
			}
		}
	}
}

func TestNotationCoversAll18(t *testing.T) {
	seen := map[string]bool{}
	for _, cfg := range allConfigs(8) {
		n := cfg.Notation()
		if seen[n] {
			t.Fatalf("duplicate notation %s", n)
		}
		seen[n] = true
	}
	if len(seen) != 18 {
		t.Fatalf("got %d combinations, want 18", len(seen))
	}
	for _, m := range []string{"quick", "repl1", "repl6"} {
		for _, ms := range []string{"naive", "opt"} {
			for _, ad := range []string{"susp", "page", "split"} {
				if !seen[fmt.Sprintf("%s,%s,%s", m, ms, ad)] {
					t.Fatalf("missing %s,%s,%s", m, ms, ad)
				}
			}
		}
	}
}
