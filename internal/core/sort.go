package core

import (
	"fmt"
	"time"
)

// SortResult is the outcome of one external sort: the identity of the final
// sorted output plus execution statistics.
type SortResult struct {
	// Result is the first (often only) output run; see Segments.
	Result RunID
	// Segments lists every output run in key order. At one worker (every
	// simulated sort included) there is exactly one; a key-partitioned merge
	// produces up to Workers segments whose concatenation is the sorted
	// output — value-identical at every worker count.
	Segments []RunID
	Pages    int
	Tuples   int
	Stats    SortStats
}

// MergeExisting merges already-sorted runs that live in e.Store into one
// run, under the configured merging strategy and memory-adaptation strategy
// — the merge phase of an external sort exposed on its own (useful for
// compaction-style workloads). The input runs are consumed: they are freed
// as the merge retires them, and an aborted merge frees the rest, so nothing
// leaks (the engine owns them from the moment of the call). With a single
// input run, that run is returned unchanged. The runs carry no key fences,
// so on more than one worker disjoint run groups merge in parallel first
// and one final merge combines them (the result is still a single run).
func MergeExisting(e *Env, cfg SortConfig, ids []RunID) (*SortResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &SortStats{Workers: effectiveWorkers(e, cfg)}
	t0 := e.now()
	runs := make([]*runInfo, len(ids))
	for i, id := range ids {
		runs[i] = &runInfo{id: id, pages: e.Store.Pages(id)}
	}
	// Checked before the merge phase so its 0- and 1-run fast paths honor
	// cancellation like every other operator entry.
	if err := e.ctxErr(); err != nil {
		freeRuns(e, runs)
		return nil, err
	}
	segs, err := mergePhase(e, cfg, st, st.Workers, runs)
	if err != nil {
		return nil, err
	}
	st.MergeDuration = e.now() - t0
	return finishSort(e, st, t0, segs), nil
}

// ExternalSort sorts e.In under cfg, writing the final sorted output into
// e.Store. It adapts its memory usage to e.Mem throughout — the paper's
// memory-adaptive external sort: a split phase, then a merge phase, each on
// cfg.Workers workers (see runCrew; one unless the real engine asks for
// more). The output is a short ordered sequence of segment runs
// (SortResult.Segments) whose concatenation is the sorted result. An
// aborted sort leaves no storage and no granted page behind.
func ExternalSort(e *Env, cfg SortConfig) (*SortResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &SortStats{Workers: effectiveWorkers(e, cfg)}
	t0 := e.now()
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	runs, err := splitPhase(e, cfg, st, st.Workers)
	if err != nil {
		return nil, err
	}
	st.SplitDuration = e.now() - t0
	tm := e.now()
	segs, err := mergePhase(e, cfg, st, st.Workers, runs)
	if err != nil {
		return nil, err
	}
	st.MergeDuration = e.now() - tm
	res := finishSort(e, st, t0, segs)
	if res.Tuples != st.TuplesIn {
		return nil, fmt.Errorf("core: sort lost tuples: in %d, out %d", st.TuplesIn, res.Tuples)
	}
	return res, nil
}

// finishSort closes the operation: final timings, every page handed back,
// the segments summed into the result.
func finishSort(e *Env, st *SortStats, t0 time.Duration, segs []*runInfo) *SortResult {
	st.Response = e.now() - t0
	st.EventPanics = e.eventPanics
	e.setPhase("idle")
	e.yieldAll()
	res := &SortResult{Result: segs[0].id, Segments: make([]RunID, len(segs))}
	for i, s := range segs {
		res.Segments[i] = s.id
		res.Pages += s.pages
		res.Tuples += s.tuples
	}
	res.Stats = *st
	return res
}
