package core

import (
	"errors"
	"testing"
)

func splitOnly(t *testing.T, recs []Record, cfg SortConfig, total int, script []targetChange) ([]*runInfo, *memStore, *SortStats) {
	t.Helper()
	env, store, broker, _ := testEnv(t, recs, cfg.PageRecords, total, 3)
	broker.script = script
	st := &SortStats{}
	runs, err := splitPhase(env, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	return runs, store, st
}

func checkRunsValid(t *testing.T, store *memStore, runs []*runInfo, wantTuples int) {
	t.Helper()
	total := 0
	for _, r := range runs {
		recs := runRecords(t, store, r.id)
		checkSorted(t, recs)
		if len(recs) != r.tuples {
			t.Fatalf("run %d tuple mismatch: %d vs %d", r.id, len(recs), r.tuples)
		}
		checkStored(t, store, r)
		total += r.tuples
	}
	if total != wantTuples {
		t.Fatalf("split lost tuples: %d of %d", total, wantTuples)
	}
}

func TestQuickSplitRunSizesMatchMemory(t *testing.T) {
	recs := makeRecords(1000, 3)
	cfg := SortConfig{Method: Quick, PageRecords: 8, MinPages: 3, BlockPages: 1}
	runs, store, st := splitOnly(t, recs, cfg, 10, nil)
	checkRunsValid(t, store, runs, 1000)
	// 125 input pages at 10 pages of memory: 13 runs of <=10 pages.
	if len(runs) != 13 {
		t.Fatalf("runs = %d, want 13", len(runs))
	}
	for _, r := range runs[:len(runs)-1] {
		if r.pages != 10 {
			t.Fatalf("quicksort run of %d pages, want 10 (memory-sized)", r.pages)
		}
	}
	if st.Runs != 13 {
		t.Fatalf("stats.Runs = %d", st.Runs)
	}
}

func TestReplSplitRunsTwiceMemory(t *testing.T) {
	recs := makeRecords(8000, 5)
	cfg := SortConfig{Method: Repl, BlockPages: 1, PageRecords: 8, MinPages: 3}
	runs, store, _ := splitOnly(t, recs, cfg, 10, nil)
	checkRunsValid(t, store, runs, 8000)
	// E[run] ≈ 2*10-1 = 19 pages = 152 tuples → ~53 runs; allow slack.
	if len(runs) < 40 || len(runs) > 70 {
		t.Fatalf("repl1 runs = %d, want ≈53 (2x memory)", len(runs))
	}
	// First run must be at least memory-sized (heap starts full).
	if runs[0].pages < 10 {
		t.Fatalf("first run = %d pages, want >= memory", runs[0].pages)
	}
}

func TestReplSplitBlockShortensRuns(t *testing.T) {
	recs := makeRecords(12000, 7)
	mkRuns := func(block int) int {
		cfg := SortConfig{Method: Repl, BlockPages: block, PageRecords: 8, MinPages: 3}
		runs, store, _ := splitOnly(t, recs, cfg, 12, nil)
		checkRunsValid(t, store, runs, 12000)
		return len(runs)
	}
	r1, r6, r12 := mkRuns(1), mkRuns(6), mkRuns(12)
	if !(r1 <= r6 && r6 <= r12) {
		t.Fatalf("bigger blocks must not lengthen runs: %d, %d, %d", r1, r6, r12)
	}
	// N = M degenerates toward memory-sized runs (paper §2.1): average run
	// should be near 2M-N = M.
	if avg := 12000 / 8 / r12; avg > 16 {
		t.Fatalf("repl12 average run = %d pages, want ≈12 (=M)", avg)
	}
}

func TestQuickSplitUsesGrowthWhileFilling(t *testing.T) {
	recs := makeRecords(2000, 9)
	cfg := SortConfig{Method: Quick, PageRecords: 8, MinPages: 3, BlockPages: 1}
	// Start at 6 pages, grow to 30 early: later runs should be larger.
	runs, store, _ := splitOnly(t, recs, cfg, 30, nil)
	checkRunsValid(t, store, runs, 2000)
	_ = runs
	// With a shrink script instead: runs become smaller after pressure.
	runs2, store2, _ := splitOnly(t, recs, cfg, 30, []targetChange{{5, 6}})
	checkRunsValid(t, store2, runs2, 2000)
	if len(runs2) <= len(runs) {
		t.Fatalf("shrunken memory must yield more runs: %d vs %d", len(runs2), len(runs))
	}
}

func TestReplSplitRespondsWithoutLosingTuples(t *testing.T) {
	recs := makeRecords(5000, 11)
	cfg := SortConfig{Method: Repl, BlockPages: 6, PageRecords: 8, MinPages: 3}
	script := []targetChange{{50, 4}, {200, 16}, {500, 3}, {900, 16}, {1400, 5}, {2000, 16}}
	runs, store, _ := splitOnly(t, recs, cfg, 16, script)
	checkRunsValid(t, store, runs, 5000)
}

func TestSplitPropagatesInputError(t *testing.T) {
	cfg := SortConfig{Method: Quick, PageRecords: 8, MinPages: 3, BlockPages: 1}
	env, _, _, _ := testEnv(t, makeRecords(100, 1), 8, 10, 3)
	env.In = &errInput{after: 3}
	st := &SortStats{}
	if _, err := splitPhase(env, cfg, st); err == nil {
		t.Fatal("input error must propagate")
	}
	cfg.Method = Repl
	env2, _, _, _ := testEnv(t, makeRecords(100, 1), 8, 10, 3)
	env2.In = &errInput{after: 3}
	if _, err := splitPhase(env2, cfg, st); err == nil {
		t.Fatal("input error must propagate (repl)")
	}
}

type errInput struct{ after int }

func (e *errInput) NextPage() (Page, bool, error) {
	if e.after <= 0 {
		return nil, false, errors.New("disk went away")
	}
	e.after--
	return Page{{Key: 1}}, true, nil
}

func TestSplitDelaysQuickVsRepl(t *testing.T) {
	// Quick must write its whole memory before yielding; repl writes just
	// enough. Measure pages written between pressure arrival and yield by
	// scripting one pressure event and comparing run page counts.
	recs := makeRecords(4000, 13)
	quickCfg := SortConfig{Method: Quick, PageRecords: 8, MinPages: 3, BlockPages: 1}
	replCfg := SortConfig{Method: Repl, BlockPages: 1, PageRecords: 8, MinPages: 3}
	// Shrink by 4 pages early on.
	script := []targetChange{{40, 12}}
	qRuns, qStore, _ := splitOnly(t, recs, quickCfg, 16, script)
	rRuns, rStore, _ := splitOnly(t, recs, replCfg, 16, script)
	checkRunsValid(t, qStore, qRuns, 4000)
	checkRunsValid(t, rStore, rRuns, 4000)
}
