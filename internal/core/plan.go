package core

import "sort"

// firstStepFanIn returns how many of the n remaining runs the next
// preliminary merge step should combine when m buffer pages are available
// (fan-in capacity m-1), following the paper's Section 2.2 / Figure 1:
//
//   - If all runs fit, the (final) step merges them all.
//   - NaiveMerge combines as many as possible: m-1.
//   - OptMerge combines just enough that every subsequent step merges a
//     full memory's worth: m-1 runs each, and the last step as many as fit
//     it. This keeps preliminary steps minimal without increasing the
//     number of steps.
//
// held says the plan's last step hands its records to a consumer (LastStep)
// instead of writing a run: with no output page it fits m runs, so OptMerge
// takes ((n-3) mod (m-2)) + 2 where a stored last step needs
// ((n-2) mod (m-2)) + 2. The result is always in [2, m-1] when a
// preliminary step is required.
func firstStepFanIn(n, m int, strat MergeStrategy, held bool) int {
	if m < 3 {
		m = 3 // two inputs plus an output page is the smallest possible step
	}
	last := m - 1
	if held {
		last = m
	}
	if n <= last {
		return n
	}
	if strat == NaiveMerge {
		return m - 1
	}
	return (n-last-1)%(m-2) + 2
}

// mergeStepsNeeded returns the total number of merge steps for n runs with
// m pages (used by planning sanity checks and tests).
func mergeStepsNeeded(n, m int) int {
	if n <= 1 {
		return 0
	}
	if m < 3 {
		m = 3
	}
	if n <= m-1 {
		return 1
	}
	// Each preliminary step turns k runs into 1, reducing the count by k-1.
	steps := 0
	for n > m-1 {
		k := firstStepFanIn(n, m, OptMerge, false)
		n -= k - 1
		steps++
	}
	return steps + 1
}

// pickRuns selects k runs for a merge step: the shortest remaining ones
// (paper's policy, minimizing preliminary-merge cost), unless the ablation
// flag asks for arbitrary (first-k) selection. Returns the chosen runs and
// the rest, both preserving relative order.
func pickRuns(runs []*runInfo, k int, shortestFirst bool) (chosen, rest []*runInfo) {
	if k >= len(runs) {
		return runs, nil
	}
	if !shortestFirst {
		chosen = append(chosen, runs[:k]...)
		rest = append(rest, runs[k:]...)
		return chosen, rest
	}
	idx := make([]int, len(runs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return runs[idx[a]].remainingPages() < runs[idx[b]].remainingPages()
	})
	take := make(map[int]bool, k)
	for _, i := range idx[:k] {
		take[i] = true
	}
	for i, r := range runs {
		if take[i] {
			chosen = append(chosen, r)
		} else {
			rest = append(rest, r)
		}
	}
	return chosen, rest
}
