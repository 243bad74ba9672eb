package core

import (
	"errors"
	"sort"
)

// quickSplit implements the Quicksort split phase: fill all granted memory
// with input pages, sort a (key,pointer) list, write the result out as one
// run. It reacts to memory growth while filling; under pressure it must
// finish sorting and writing the current contents before freeing anything —
// the paper's explanation for Quicksort's long split-phase delays.
func quickSplit(e *Env, cfg SortConfig, st *SortStats) ([]*runInfo, error) {
	w := runWriter{store: e.Store}
	var runs []*runInfo
	inputDone := false
	for !inputDone {
		var mem []Page
		tuples := 0
		for {
			// Page-granular adaptation point: cancellation is observed here.
			if err := e.ctxErr(); err != nil {
				return runs, err
			}
			// Exploit extra memory immediately while filling (paper §3.1).
			if g := e.Mem.Target() - e.Mem.Granted(); g > 0 {
				e.Mem.Acquire(g)
			}
			if e.Mem.Granted() == 0 {
				// Parked by the crew, or entitled while the (shared) pool is
				// empty: wait rather than spin. The real broker's wait counts
				// changes from its last return, so a sibling that yields or
				// leaves between the check above and the wait is not slept
				// through. A single-operator pool never reaches this state.
				if err := e.waitChange(); err != nil {
					return runs, err
				}
				continue
			}
			if p := e.Mem.Pressure(); p > 0 {
				if len(mem) == 0 {
					// No tuples pinned: pages can be released instantly.
					e.Mem.Yield(p)
					continue
				}
				break // sort & write everything first, then satisfy the request
			}
			if len(mem) >= e.Mem.Granted() {
				break
			}
			pg, ok, err := e.In.NextPage()
			if err != nil {
				return runs, err
			}
			if !ok {
				inputDone = true
				break
			}
			mem = append(mem, pg)
			tuples += len(pg)
			st.PagesIn++
			st.TuplesIn += len(pg)
		}
		if tuples == 0 {
			continue
		}
		// Sort the (key,pointer) list.
		recs := make([]Record, 0, tuples)
		for _, p := range mem {
			recs = append(recs, p...)
		}
		e.charge(OpBuildEntry, int64(tuples))
		var cmp int64
		sort.Slice(recs, func(i, j int) bool { cmp++; return Less(recs[i], recs[j]) })
		e.charge(OpCompare, cmp)
		e.charge(OpSwapEntry, cmp/2) // pointer swaps, ~half the comparisons
		// Gather tuples through the pointers into output pages, written as
		// one append that is awaited at once: a Quicksort run's buffers are
		// only reusable once the whole run is on disk (paper footnote 1).
		e.charge(OpCopyTuple, int64(tuples))
		ri, err := newRun(e.Store)
		if err != nil {
			return runs, err
		}
		runs = append(runs, ri) // from here on the caller frees it on error
		var pages []Page
		for len(recs) > 0 {
			n := min(cfg.PageRecords, len(recs))
			pages = append(pages, Page(recs[:n:n]))
			recs = recs[n:]
		}
		if err := w.append(ri, pages); err != nil {
			return runs, err
		}
		if err := w.wait(); err != nil {
			return runs, err
		}
		st.Runs++
		e.emit(EvRunDone, ri.pages, "")
		st.RunPagesWritten += ri.pages
		if g := e.Mem.Granted(); g > st.MaxGranted {
			st.MaxGranted = g
		}
		// The run is durable: release whatever is being demanded.
		if p := e.Mem.Pressure(); p > 0 {
			e.Mem.Yield(p)
		}
	}
	return runs, nil
}

// replSplit implements replacement selection with N-page block writes
// (N = cfg.BlockPages; N=1 is the paper's repl1, N=6 its repl6). Memory is
// divided into one input buffer, an N-page output block and the heap. Under
// pressure it writes out just enough pages to satisfy the request —
// flushed-but-unrefilled block pages count as free, which is why blockwise
// replacement selection answers memory requests fastest (paper §5.2).
func replSplit(e *Env, cfg SortConfig, st *SortStats) ([]*runInfo, error) {
	R := cfg.PageRecords
	h := e.newSelector()
	// The output block lives in the writer, whose buffers serve every run of
	// this split in turn.
	w := runWriter{store: e.Store, recs: R}
	var runs []*runInfo
	var (
		cur       *runInfo
		curTag    int
		curLast   Record
		curOpen   bool
		inputDone bool
	)
	heapPages := func() int { return PagesForTuples(h.Len(), R) }
	// fail abandons the split: the in-flight block write is awaited (the run
	// must be quiescent before the caller frees it) and every run produced
	// so far — including the open one — is handed back for cleanup.
	fail := func(err error) ([]*runInfo, error) {
		_ = w.wait()
		if cur != nil {
			runs = append(runs, cur)
			cur = nil
		}
		return runs, err
	}
	// The heap may occupy all granted pages; extraction of an N-page block
	// transiently frees N pages that refill from the input. This matches
	// the paper's accounting (average run length ≈ 2M − N pages; at N = M
	// the method degenerates to filling memory and writing it out, §2.1).
	effBlock := func() int {
		return min(cfg.BlockPages, max(1, e.Mem.Granted()))
	}
	capPages := func() int {
		return max(1, e.Mem.Granted())
	}
	closeRun := func() error {
		if err := w.wait(); err != nil {
			return err
		}
		if cur != nil {
			runs = append(runs, cur)
			st.Runs++
			e.emit(EvRunDone, cur.pages, "")
			cur = nil
		}
		curTag++
		curOpen = false
		return nil
	}
	// emitBlock extracts up to maxPages pages of current-run tuples and
	// appends them to the current run; reports whether the run ended.
	emitBlock := func(maxPages int) (ended bool, err error) {
		if h.Len() == 0 {
			return inputDone, nil
		}
		if h.PeekRun() != curTag {
			return true, nil
		}
		n := 0
		for ; n < maxPages*R && h.Len() > 0 && h.PeekRun() == curTag; n++ {
			curLast = h.Pop().rec
			w.add(curLast)
		}
		curOpen = true
		e.charge(OpCompare, h.TakeCompares())
		e.charge(OpCopyTuple, int64(n))
		if cur == nil {
			if cur, err = newRun(e.Store); err != nil {
				return false, err
			}
		}
		pages, err := w.flush(cur)
		if err != nil {
			return false, err
		}
		st.RunPagesWritten += pages
		ended = (h.Len() == 0 && inputDone) || (h.Len() > 0 && h.PeekRun() != curTag)
		return ended, nil
	}

	for {
		// Page-granular adaptation point: cancellation is observed here.
		if err := e.ctxErr(); err != nil {
			return fail(err)
		}
		if g := e.Mem.Target() - e.Mem.Granted(); g > 0 {
			e.Mem.Acquire(g)
		}
		if e.Mem.Granted() == 0 && !(inputDone && h.Len() == 0) {
			// Parked, or entitled while the (shared) pool is empty: wait rather
			// than spin (see quickSplit).
			if err := e.waitChange(); err != nil {
				return fail(err)
			}
			continue
		}
		if g := e.Mem.Granted(); g > st.MaxGranted {
			st.MaxGranted = g
		}
		if p := e.Mem.Pressure(); p > 0 {
			// Write out just enough pages; flushed block pages that have not
			// been refilled yet count as free slack.
			for {
				slack := capPages() - heapPages()
				if slack < 0 {
					slack = 0
				}
				if p-slack <= 0 || h.Len() == 0 {
					break
				}
				ended, err := emitBlock(p - slack)
				if err != nil {
					return fail(err)
				}
				if ended {
					if err := closeRun(); err != nil {
						return fail(err)
					}
				}
			}
			if err := w.wait(); err != nil {
				return fail(err)
			}
			y := min(p, e.Mem.Granted())
			e.Mem.Yield(y)
			continue
		}
		if !inputDone && heapPages() < capPages() {
			pg, ok, err := e.In.NextPage()
			if err != nil {
				return fail(err)
			}
			if !ok {
				inputDone = true
				continue
			}
			st.PagesIn++
			st.TuplesIn += len(pg)
			for _, rec := range pg {
				tag := curTag
				if curOpen && Less(rec, curLast) {
					tag = curTag + 1
				}
				h.Push(rsItem{run: tag, rec: rec})
			}
			e.charge(OpCompare, h.TakeCompares())
			e.charge(OpCopyTuple, int64(len(pg)))
			continue
		}
		if h.Len() == 0 {
			if inputDone {
				break
			}
			return fail(errors.New("core: replacement selection stuck with empty heap"))
		}
		ended, err := emitBlock(effBlock())
		if err != nil {
			return fail(err)
		}
		if ended {
			if err := closeRun(); err != nil {
				return fail(err)
			}
		}
	}
	if err := closeRun(); err != nil {
		return fail(err)
	}
	return runs, nil
}
