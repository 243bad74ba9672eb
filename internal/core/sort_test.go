package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// sortAndCheck runs ExternalSort and validates output order and content.
func sortAndCheck(t *testing.T, recs []Record, cfg SortConfig, broker *scriptedBroker, env *Env, store *memStore) *SortResult {
	t.Helper()
	res, err := ExternalSort(env, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Notation(), err)
	}
	out := runRecords(t, store, res.Result)
	checkSorted(t, out)
	checkPermutation(t, recs, out)
	if broker.granted != 0 {
		t.Fatalf("%s: sort finished still holding %d pages", cfg.Notation(), broker.granted)
	}
	return res
}

func allConfigs(pageRecords int) []SortConfig {
	var cfgs []SortConfig
	for _, m := range []struct {
		method Method
		block  int
	}{{Quick, 1}, {Repl, 1}, {Repl, 6}} {
		for _, ms := range []MergeStrategy{NaiveMerge, OptMerge} {
			for _, ad := range []Adapt{Suspend, Paging, DynSplit} {
				cfgs = append(cfgs, SortConfig{
					Method: m.method, BlockPages: m.block,
					Merge: ms, Adapt: ad,
					PageRecords: pageRecords,
				})
			}
		}
	}
	return cfgs
}

func TestAll18AlgorithmsFixedMemory(t *testing.T) {
	recs := makeRecords(3000, 7)
	for _, cfg := range allConfigs(8) {
		cfg := cfg
		t.Run(cfg.Notation(), func(t *testing.T) {
			env, store, broker, _ := testEnv(t, recs, 8, 12, 3)
			res := sortAndCheck(t, recs, cfg, broker, env, store)
			if res.Stats.Runs < 2 {
				t.Fatalf("expected multiple runs, got %d", res.Stats.Runs)
			}
			if res.Stats.MergeSteps < 1 {
				t.Fatalf("expected at least one merge step")
			}
			if res.Tuples != 3000 {
				t.Fatalf("tuples = %d", res.Tuples)
			}
		})
	}
}

func TestAll18AlgorithmsUnderFluctuation(t *testing.T) {
	recs := makeRecords(4000, 11)
	for _, cfg := range allConfigs(8) {
		cfg := cfg
		t.Run(cfg.Notation(), func(t *testing.T) {
			env, store, broker, _ := testEnv(t, recs, 8, 20, 3)
			// Adversarial target schedule: repeated shrinks and growths.
			broker.script = []targetChange{
				{100, 8}, {300, 20}, {700, 4}, {1200, 16}, {2000, 3},
				{2600, 20}, {3300, 6}, {4200, 20}, {5000, 5}, {6000, 20},
				{7500, 7}, {9000, 20}, {11000, 4}, {14000, 20},
			}
			sortAndCheck(t, recs, cfg, broker, env, store)
		})
	}
}

func TestSortSingleRunNoMerge(t *testing.T) {
	recs := makeRecords(50, 3)
	cfg := DefaultConfig()
	cfg.PageRecords = 8
	env, store, broker, _ := testEnv(t, recs, 8, 64, 3)
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	if res.Stats.MergeSteps != 0 {
		t.Fatalf("tiny input should need no merge, got %d steps", res.Stats.MergeSteps)
	}
}

func TestSortEmptyInput(t *testing.T) {
	for _, cfg := range allConfigs(8) {
		env, _, _, _ := testEnv(t, nil, 8, 10, 3)
		res, err := ExternalSort(env, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Notation(), err)
		}
		if res.Tuples != 0 || res.Pages != 0 {
			t.Fatalf("%s: empty input produced %d tuples", cfg.Notation(), res.Tuples)
		}
	}
}

func TestSortAlreadySorted(t *testing.T) {
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{Key: uint64(i)}
	}
	cfg := DefaultConfig()
	cfg.PageRecords = 8
	env, store, broker, _ := testEnv(t, recs, 8, 10, 3)
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	// Replacement selection on sorted input yields one giant run.
	if res.Stats.Runs != 1 {
		t.Fatalf("sorted input should produce one run, got %d", res.Stats.Runs)
	}
}

func TestSortReverseSorted(t *testing.T) {
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{Key: uint64(2000 - i)}
	}
	cfg := DefaultConfig()
	cfg.PageRecords = 8
	env, store, broker, _ := testEnv(t, recs, 8, 10, 3)
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	// Reverse input: replacement selection runs collapse to memory size.
	if res.Stats.Runs < 2000/(10*8) {
		t.Fatalf("reverse input should produce many runs, got %d", res.Stats.Runs)
	}
}

func TestSortWithDuplicateKeys(t *testing.T) {
	recs := make([]Record, 3000)
	rng := makeRecords(3000, 13)
	for i := range recs {
		recs[i] = Record{Key: rng[i].Key % 17}
	}
	for _, cfg := range allConfigs(8)[:6] {
		env, store, broker, _ := testEnv(t, recs, 8, 10, 3)
		sortAndCheck(t, recs, cfg, broker, env, store)
	}
}

func TestSortFreesAllIntermediateRuns(t *testing.T) {
	recs := makeRecords(4000, 17)
	cfg := DefaultConfig()
	cfg.PageRecords = 8
	env, store, broker, _ := testEnv(t, recs, 8, 10, 3)
	sortAndCheck(t, recs, cfg, broker, env, store)
	// Only the final result run should remain live.
	if live := store.liveRuns(); live != 1 {
		t.Fatalf("%d runs still live, want 1 (the result)", live)
	}
}

// TestPanickingObserverIsCounted: the OnEvent hook runs behind a recover
// (Env.deliver), so an observer that panics on every event costs the sort
// nothing but those events: the sort completes and Stats.EventPanics counts
// every one, the last (the phase going idle) included.
func TestPanickingObserverIsCounted(t *testing.T) {
	recs := makeRecords(3000, 29)
	cfg := DefaultConfig()
	cfg.PageRecords = 8
	env, store, broker, _ := testEnv(t, recs, 8, 10, 3)
	calls := 0
	env.OnEvent = func(Event) {
		calls++
		panic("observer bug")
	}
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	if res.Stats.EventPanics != calls {
		t.Fatalf("Stats.EventPanics = %d after %d panicking events", res.Stats.EventPanics, calls)
	}
}

func TestStatsAccounting(t *testing.T) {
	recs := makeRecords(3000, 23)
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 8, BlockPages: 1}
	env, store, broker, meter := testEnv(t, recs, 8, 10, 3)
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	if res.Stats.TuplesIn != 3000 {
		t.Fatalf("TuplesIn = %d", res.Stats.TuplesIn)
	}
	if res.Stats.PagesIn != 375 {
		t.Fatalf("PagesIn = %d", res.Stats.PagesIn)
	}
	if res.Stats.RunPagesWritten < 375 {
		t.Fatalf("RunPagesWritten = %d", res.Stats.RunPagesWritten)
	}
	if meter.counts[OpCompare] == 0 || meter.counts[OpCopyTuple] == 0 {
		t.Fatal("CPU charges missing")
	}
	if res.Stats.Response < 0 {
		t.Fatal("negative response")
	}
}

// Property: every algorithm sorts correctly under arbitrary fluctuation
// schedules. This is the paper's core correctness requirement.
func TestPropertySortUnderRandomFluctuations(t *testing.T) {
	cfgs := allConfigs(4)
	prop := func(seed uint64, nRecs uint16, schedule []uint16) bool {
		n := int(nRecs)%1500 + 100
		recs := makeRecords(n, seed)
		cfg := cfgs[int(seed%uint64(len(cfgs)))]
		env, store, broker, _ := testEnv(t, recs, 4, 16, 3)
		tick := int64(0)
		for _, s := range schedule {
			tick += int64(s)%900 + 20
			broker.script = append(broker.script, targetChange{tick, int(s)%17 + 3})
		}
		res, err := ExternalSort(env, cfg)
		if err != nil {
			t.Logf("%s failed: %v", cfg.Notation(), err)
			return false
		}
		out := runRecords(t, store, res.Result)
		if len(out) != n {
			t.Logf("%s: %d of %d tuples", cfg.Notation(), len(out), n)
			return false
		}
		for i := 1; i < len(out); i++ {
			if Less(out[i], out[i-1]) {
				t.Logf("%s: unsorted output", cfg.Notation())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: replacement selection's average run length approaches twice the
// working memory on random input (Knuth's classic result, paper §2.1).
func TestPropertyReplacementSelectionRunLength(t *testing.T) {
	recs := makeRecords(20000, 37)
	cfg := SortConfig{Method: Repl, BlockPages: 1, Merge: OptMerge, Adapt: DynSplit, PageRecords: 8}
	env, _, broker, _ := testEnv(t, recs, 8, 12, 3)
	res, err := ExternalSort(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = broker
	// Heap capacity is (12-2-1)=9... at least granted-2 pages of 8 records.
	// Expected runs ≈ tuples / (2 * heapTuples).
	heapTuples := (12 - 2) * 8 // upper bound on working set
	expect := 20000 / (2 * heapTuples)
	if res.Stats.Runs < expect/2 || res.Stats.Runs > expect*2 {
		t.Fatalf("runs = %d, expected around %d (2x-memory property)", res.Stats.Runs, expect)
	}
}

func TestQuickProducesMoreRunsThanRepl(t *testing.T) {
	recs := makeRecords(20000, 41)
	mkCfg := func(m Method, b int) SortConfig {
		return SortConfig{Method: m, BlockPages: b, Merge: OptMerge, Adapt: DynSplit, PageRecords: 8}
	}
	envQ, _, _, _ := testEnv(t, recs, 8, 12, 3)
	resQ, err := ExternalSort(envQ, mkCfg(Quick, 1))
	if err != nil {
		t.Fatal(err)
	}
	envR, _, _, _ := testEnv(t, recs, 8, 12, 3)
	resR, err := ExternalSort(envR, mkCfg(Repl, 1))
	if err != nil {
		t.Fatal(err)
	}
	if resR.Stats.Runs >= resQ.Stats.Runs {
		t.Fatalf("replacement selection should create fewer runs: quick=%d repl=%d",
			resQ.Stats.Runs, resR.Stats.Runs)
	}
	// Paper: repl runs ≈ half of quick's.
	if r := float64(resQ.Stats.Runs) / float64(resR.Stats.Runs); r < 1.5 || r > 2.6 {
		t.Fatalf("quick/repl run ratio = %.2f, want ≈2", r)
	}
}

func TestReplBlockWritesSlightlyMoreRunsThanRepl1(t *testing.T) {
	recs := makeRecords(30000, 43)
	mk := func(b int) int {
		cfg := SortConfig{Method: Repl, BlockPages: b, Merge: OptMerge, Adapt: DynSplit, PageRecords: 8}
		env, _, _, _ := testEnv(t, recs, 8, 16, 3)
		res, err := ExternalSort(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Runs
	}
	r1, r6 := mk(1), mk(6)
	if r6 < r1 {
		t.Fatalf("block writes cannot lengthen runs: repl1=%d repl6=%d", r1, r6)
	}
	if float64(r6) > 1.8*float64(r1) {
		t.Fatalf("repl6 runs (%d) should be only marginally more than repl1 (%d)", r6, r1)
	}
}

func TestDynamicSplittingCountsSplitsAndCombines(t *testing.T) {
	recs := makeRecords(6000, 53)
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 8, BlockPages: 1}
	env, store, broker, _ := testEnv(t, recs, 8, 24, 3)
	// Shrink hard mid-merge, then grow back: must split, then combine.
	broker.script = []targetChange{
		{4000, 5}, {8000, 24}, {12000, 4}, {16000, 24},
	}
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	if res.Stats.Splits == 0 {
		t.Fatal("expected at least one dynamic split")
	}
}

func TestSuspensionCountsSuspensions(t *testing.T) {
	recs := makeRecords(6000, 59)
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: Suspend, PageRecords: 8, BlockPages: 1}
	env, store, broker, _ := testEnv(t, recs, 8, 24, 3)
	broker.script = []targetChange{
		{4000, 3}, {4400, 24}, {9000, 3}, {9500, 24},
	}
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	if res.Stats.Suspensions == 0 {
		t.Fatal("expected at least one suspension")
	}
}

func TestPagingCountsExtraReads(t *testing.T) {
	recs := makeRecords(6000, 61)
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: Paging, PageRecords: 8, BlockPages: 1}
	env, store, broker, _ := testEnv(t, recs, 8, 24, 3)
	broker.script = []targetChange{
		{4000, 4}, {30000, 24},
	}
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	if res.Stats.ExtraMergeReads == 0 {
		t.Fatal("paging under shortage must re-read evicted buffers")
	}
}

func TestAblationNoCombine(t *testing.T) {
	recs := makeRecords(6000, 67)
	cfg := SortConfig{Method: Quick, Merge: OptMerge, Adapt: DynSplit, PageRecords: 8, BlockPages: 1, NoCombine: true}
	env, store, broker, _ := testEnv(t, recs, 8, 24, 3)
	broker.script = []targetChange{{4000, 5}, {6000, 24}}
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	if res.Stats.Combines != 0 {
		t.Fatalf("NoCombine config still combined %d times", res.Stats.Combines)
	}
}

func TestAdaptiveBlockIOStillSorts(t *testing.T) {
	recs := makeRecords(6000, 71)
	for _, ad := range []Adapt{Suspend, DynSplit} {
		cfg := SortConfig{Method: Repl, BlockPages: 6, Merge: OptMerge, Adapt: ad, PageRecords: 8, AdaptiveBlockIO: true}
		env, store, broker, _ := testEnv(t, recs, 8, 40, 3)
		broker.script = []targetChange{{3000, 6}, {6000, 40}}
		sortAndCheck(t, recs, cfg, broker, env, store)
	}
}

// Regression: with adaptive block I/O, read-ahead buffers loaded while
// memory was plentiful must be shed when the target shrinks to exactly the
// step's requirement — previously this livelocked (need <= target, but the
// grant was pinned under read-ahead pages so no new page could be loaded).
func TestAdaptiveBlockIOShedOnShrink(t *testing.T) {
	recs := makeRecords(20000, 73)
	cfg := SortConfig{Method: Repl, BlockPages: 6, Merge: OptMerge, Adapt: DynSplit,
		PageRecords: 8, AdaptiveBlockIO: true}
	env, store, broker, _ := testEnv(t, recs, 8, 60, 3)
	broker.limit = 50_000_000 // fail instead of hanging
	// Plenty of memory first (read-ahead fills), then shrink hard, grow,
	// shrink again: every transition must shed or reuse buffers correctly.
	broker.script = []targetChange{
		{2000, 10}, {4000, 60}, {7000, 8}, {10000, 60}, {13000, 5}, {16000, 60},
	}
	res := sortAndCheck(t, recs, cfg, broker, env, store)
	if res.Stats.ExtraMergeReads == 0 {
		t.Log("note: no re-reads observed (schedule may not have forced shedding)")
	}
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
						store := newMemStore()
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
		Store: newMemStore(),
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
