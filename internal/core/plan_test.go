package core

import (
	"testing"
	"testing/quick"
)

func TestFirstStepFanInPaperExample(t *testing.T) {
	// Paper Figure 1: n=10 runs, m=8 buffers.
	if k := firstStepFanIn(10, 8, NaiveMerge, false); k != 7 {
		t.Fatalf("naive fan-in = %d, want 7 (Figure 1a)", k)
	}
	if k := firstStepFanIn(10, 8, OptMerge, false); k != 4 {
		t.Fatalf("opt fan-in = %d, want 4 (Figure 1b)", k)
	}
}

func TestFirstStepFanInFinalStep(t *testing.T) {
	for _, s := range []MergeStrategy{NaiveMerge, OptMerge} {
		if k := firstStepFanIn(5, 8, s, false); k != 5 {
			t.Fatalf("all runs fit: fan-in = %d, want 5", k)
		}
	}
}

func TestFirstStepFanInDegenerateMemory(t *testing.T) {
	// m below 3 is clamped: binary merges.
	if k := firstStepFanIn(10, 2, OptMerge, false); k != 2 {
		t.Fatalf("fan-in = %d, want 2", k)
	}
	if k := firstStepFanIn(10, 3, NaiveMerge, false); k != 2 {
		t.Fatalf("fan-in = %d, want 2", k)
	}
}

// Property: opt's first-step choice never increases the total number of
// steps versus naive, and all later opt steps merge exactly m-1 runs.
func TestFirstStepFanInProperty(t *testing.T) {
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw)%200 + 2
		m := int(mRaw)%40 + 3
		stepsWith := func(strat MergeStrategy) int {
			cnt, runs := 0, n
			for runs > 1 {
				k := firstStepFanIn(runs, m, strat, false)
				if k < 2 || k > runs || (runs > m-1 && k > m-1) {
					t.Logf("invalid k=%d for n=%d m=%d", k, runs, m)
					return -1
				}
				runs -= k - 1
				cnt++
				if strat == OptMerge && runs > 1 && runs > m-1 {
					// After the first opt step, every step should be full.
					if kk := firstStepFanIn(runs, m, OptMerge, false); kk != m-1 {
						t.Logf("opt step not full: n=%d m=%d k=%d", runs, m, kk)
						return -1
					}
				}
			}
			return cnt
		}
		so, sn := stepsWith(OptMerge), stepsWith(NaiveMerge)
		return so > 0 && sn > 0 && so <= sn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeStepsNeeded(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{1, 10, 0}, {5, 10, 1}, {10, 8, 2}, {100, 8, 17},
	}
	for _, c := range cases {
		if got := mergeStepsNeeded(c.n, c.m); got != c.want {
			t.Fatalf("mergeStepsNeeded(%d,%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestPickRunsShortest(t *testing.T) {
	runs := []*runInfo{{pages: 9}, {pages: 1}, {pages: 5}, {pages: 3}}
	chosen, rest := pickRuns(runs, 2, true)
	if len(chosen) != 2 || chosen[0].pages != 1 || chosen[1].pages != 3 {
		t.Fatalf("chose %v", []int{chosen[0].pages, chosen[1].pages})
	}
	if len(rest) != 2 || rest[0].pages != 9 || rest[1].pages != 5 {
		t.Fatalf("rest wrong")
	}
}

func TestPickRunsAll(t *testing.T) {
	runs := []*runInfo{{pages: 1}, {pages: 2}}
	chosen, rest := pickRuns(runs, 5, true)
	if len(chosen) != 2 || rest != nil {
		t.Fatal("k >= len must take everything")
	}
}

func TestPickRunsFirstK(t *testing.T) {
	runs := []*runInfo{{pages: 9}, {pages: 1}, {pages: 5}}
	chosen, _ := pickRuns(runs, 2, false)
	if chosen[0].pages != 9 || chosen[1].pages != 1 {
		t.Fatal("ablation mode must take the first k")
	}
}

func TestPickRunsUsesRemainingNotTotal(t *testing.T) {
	// A long run mostly consumed is "shorter" than a fresh medium run.
	long := &runInfo{pages: 100, page: 99}
	mid := &runInfo{pages: 10}
	chosen, _ := pickRuns([]*runInfo{mid, long}, 1, true)
	if chosen[0] != long {
		t.Fatal("selection must use remaining pages")
	}
}
