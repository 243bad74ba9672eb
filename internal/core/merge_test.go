package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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
	out, err := m.mergeRuns(runs)
	if err != nil {
		t.Fatal(err)
	}
	checkStored(t, store, out)
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
		cfg := SortConfig{Method: Quick, Merge: tc.strat, Adapt: Suspend, PageRecords: 4, BlockPages: 1}
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
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 4, BlockPages: 1}
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
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 4, BlockPages: 1}
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
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 4, BlockPages: 1}
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
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 4, BlockPages: 1}
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
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: Suspend, PageRecords: 4, BlockPages: 1}
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
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: Paging, PageRecords: 4, BlockPages: 1}
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
			Method: Quick, Merge: OptMerge, Adapt: adapt, PageRecords: 4, BlockPages: 1,
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
			cfg := SortConfig{Method: Quick, Merge: strat, Adapt: adapt, PageRecords: 4, BlockPages: 1}
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

// appendLog is a memStore that keeps one line per Append and per adaptation
// event, in order, and checks every run as it grows: a page appended to the
// run of a step that did not produce it breaks that run's order.
type appendLog struct {
	*memStore
	t      *testing.T
	lines  []logLine
	last   map[RunID]Key // last key appended to each run (mkRuns makes them unique)
	onRead func()
}

// logLine is an adaptation event, or an Append: to which run, how many
// pages, starting at which key, and whether every page was full.
type logLine struct {
	event string
	run   RunID
	pages int
	first Key
	full  bool
}

func (s *appendLog) ReadAsync(id RunID, page int) PageToken {
	s.onRead()
	return s.memStore.ReadAsync(id, page)
}

func (s *appendLog) Append(id RunID, pages []Page) (Token, error) {
	full := true
	for _, pg := range pages {
		for _, rec := range pg {
			if prev, ok := s.last[id]; ok && rec.Key < prev {
				s.t.Errorf("run %d: key %d appended after key %d — a page went to the wrong step's run", id, rec.Key, prev)
			}
			s.last[id] = rec.Key
		}
		full = full && len(pg) == cap(pg)
	}
	s.lines = append(s.lines, logLine{run: id, pages: len(pages), first: pages[0][0].Key, full: full})
	return s.memStore.Append(id, pages)
}

// TestMergeBlocksFollowTheirStep: the writer's pending block belongs to the
// step it was produced for. Under every adaptation strategy and at block
// sizes 1, 2 and 6 the merge equals the oracle and every run — intermediate
// ones included — grows in order, while the target moves at moments chosen
// so that the merge learns of it with a block one page short of full. Under
// dynamic splitting the step is then split, combined, its combine aborted
// and absorbed with full pages pending: the writer is empty at each of those
// switches, and the pending pages went out — to the step that was active —
// just before. At one page a block the merge issues the very sequence of
// Appends it issues at zero, the value the simulator runs with and the one
// that takes the flush decision out of the code path.
func TestMergeBlocksFollowTheirStep(t *testing.T) {
	for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
		logs := map[int][]logLine{}
		for _, block := range []int{0, 1, 2, 6} {
			store := &appendLog{memStore: newMemStore(), t: t, last: map[RunID]Key{}}
			runs, all := mkRuns(t, store.memStore, 4, []int{9, 14, 11, 16, 9, 12, 15, 10, 13, 9, 16, 12})
			broker := newScriptedBroker(t, 13, 3)
			broker.limit = 1 << 20
			st := &SortStats{}
			env := &Env{Store: store, Mem: broker, Meter: newCountingMeter()}
			cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: adapt, PageRecords: 4, BlockPages: 1, MergeBlockPages: block}
			m := newMergeEngine(env, cfg, st)
			// The target moves at a read in the middle of the page that leaves
			// the block one short: the adaptation that follows that page finds
			// block-1 full pages pending (none at one page a block).
			targets, reads := []int{5, 13, 6, 13, 4, 13, 9, 3, 13, 7, 13}, 0
			store.onRead = func() {
				if reads++; reads >= 20 && len(targets) > 0 && len(m.w.block) == max(block-2, 0) && m.w.fill != nil {
					broker.target, targets, reads = targets[0], targets[1:], 0
				}
			}
			events := map[EventKind]int{}
			env.OnEvent = func(ev Event) {
				switch ev.Kind {
				case EvSplitStep, EvCombineStart, EvCombineAbort:
					if m.w.n != 0 || m.w.tok != nil {
						t.Errorf("%s, block %d: %v with %d records pending in the writer (write in flight: %v)", cfg.Notation(), block, ev.Kind, m.w.n, m.w.tok != nil)
					}
				case EvCombineDone:
				default:
					return
				}
				events[ev.Kind]++
				store.lines = append(store.lines, logLine{event: ev.Kind.String()})
			}
			out, err := m.mergeRuns(runs)
			if err != nil {
				t.Fatal(err)
			}
			checkStored(t, store.memStore, out)
			got := runRecords(t, store.memStore, out.id)
			checkSorted(t, got)
			checkPermutation(t, all, got)
			if store.liveRuns() != 1 {
				t.Errorf("%s, block %d: %d runs live after the merge, want the result only", cfg.Notation(), block, store.liveRuns())
			}
			logs[block] = store.lines

			drained, blocks := 0, 0 // switches that found full pages pending; appends of a whole block
			for i, line := range store.lines {
				if line.event != "" {
					continue
				}
				if line.pages > max(block, 1) {
					t.Errorf("%s, block %d: %+v", cfg.Notation(), block, line)
				}
				if line.pages == block {
					blocks++
				}
				if line.pages < block && line.full && i+1 < len(store.lines) && store.lines[i+1].event != "" {
					drained++
				}
			}
			switch adapt {
			case DynSplit:
				if events[EvSplitStep] == 0 || events[EvCombineStart] == 0 || events[EvCombineAbort] == 0 || events[EvCombineDone] == 0 {
					t.Errorf("block %d: the targets did not make the merge split, combine, abort a combine and absorb: %v", block, events)
				}
				if block > 1 && (drained < 3 || blocks == 0) {
					t.Errorf("block %d: %d whole blocks appended and %d step switches that drained a pending block; want both", block, blocks, drained)
				}
			case Suspend:
				if st.Suspensions == 0 {
					t.Errorf("block %d: no suspension", block)
				}
			case Paging:
				if st.ExtraMergeReads == 0 {
					t.Errorf("block %d: paging never faulted", block)
				}
			}
		}
		if !slices.Equal(logs[0], logs[1]) {
			t.Errorf("adaptation %d: one page a block is not the Append sequence of no blocks at all:\n%+v\nvs\n%+v", adapt, logs[1], logs[0])
		}
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
			store := newMemStore()
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
	store := newMemStore()
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
			merge := func() (*SortResult, []Record, *memStore) {
				store := newMemStore()
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
			want := runRecords(t, fstore, first.Result)
			checkSorted(t, want)
			checkPermutation(t, all, want)
			again, _, astore := merge()
			if got := runRecords(t, astore, again.Result); !slices.EqualFunc(got, want, func(a, b Record) bool { return a.Key == b.Key }) {
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
	store := newMemStore()
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
				store := newMemStore()
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
