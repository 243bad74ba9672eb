package core

import (
	"fmt"
	"time"
)

// SortResult is the outcome of one external sort: the identity of the final
// sorted output plus execution statistics.
type SortResult struct {
	// Result is the stored output run, when Last is nil.
	Result RunID
	// Last is the merge's last step, or one a key partition, held back
	// (Env.StreamLast, and every merge on more than one worker): the output
	// is what it produces, and Pages counts nothing yet. Tuples sums its
	// inputs — all of them, for a sort; for a merge, only the runs the
	// merge wrote itself.
	Last   *LastStep
	Pages  int
	Tuples int
	Stats  SortStats
}

// MergeExisting merges already-sorted runs that live in e.Store into one
// run, under the configured merging strategy and memory-adaptation strategy
// — the merge phase of an external sort exposed on its own (useful for
// compaction-style workloads). The input runs are consumed: they are freed
// as the merge retires them, and an aborted merge frees the rest, so nothing
// leaks (the engine owns them from the moment of the call). With a single
// input run, that run is returned unchanged. The runs carry no key fences to
// cut them by, so they merge on one worker whatever cfg.Workers asks for:
// Stats.Workers reports 1.
func MergeExisting(e *Env, cfg SortConfig, ids []RunID) (*SortResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &SortStats{Workers: 1}
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
	out, last, err := mergePhase(e, cfg, st, 1, runs)
	if err != nil {
		return nil, err
	}
	st.MergeDuration = e.now() - t0
	return finishSort(e, st, t0, out, last), nil
}

// ExternalSort sorts e.In under cfg, writing the final sorted output into
// e.Store. It adapts its memory usage to e.Mem throughout — the paper's
// memory-adaptive external sort: a split phase, then a merge phase, each on
// cfg.Workers workers (see runCrew; one unless the real engine asks for
// more). The output is one stored run or the held last steps of the merge
// (SortResult.Last). An aborted sort leaves no storage and no granted page
// behind.
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
	out, last, err := mergePhase(e, cfg, st, st.Workers, runs)
	if err != nil {
		return nil, err
	}
	st.MergeDuration = e.now() - tm
	res := finishSort(e, st, t0, out, last)
	if res.Tuples != st.TuplesIn {
		return nil, fmt.Errorf("core: sort lost tuples: in %d, out %d", st.TuplesIn, res.Tuples)
	}
	return res, nil
}

// finishSort closes the operation: final timings, every page handed back,
// the stored output — or the held last steps' inputs — summed into the
// result.
func finishSort(e *Env, st *SortStats, t0 time.Duration, out *runInfo, last *LastStep) *SortResult {
	st.Response = e.now() - t0
	st.EventPanics = e.eventPanics
	e.setPhase("idle")
	e.yieldAll()
	res := &SortResult{Last: last, Stats: *st}
	if last != nil {
		last.stats = *st
		res.Tuples = last.tuples
	} else {
		res.Result, res.Pages, res.Tuples = out.id, out.pages, out.tuples
	}
	return res
}

// LastStep is the last merge step of a sort or merge, held back from the
// store — on one worker when the Env asks for it (StreamLast), and one a key
// partition on more: the paper's final merge step handing its output to the
// sort's consumer instead of writing it. Its inputs are stored runs, and
// key-range clones of runs, kept until Close; its output is whatever a
// Stream of it produces. A LastStep, like its operation, belongs to one
// goroutine at a time.
type LastStep struct {
	e      *Env
	cfg    SortConfig
	parts  [][]*runInfo // each partition's step inputs, in key order
	runs   []*runInfo   // the stored runs the inputs read, freed by Close
	tuples int          // the inputs' records, as the result's Tuples
	stats  SortStats    // the operation's, as it returned
}

// Stream starts one run of the step against mem — the operation's broker,
// or any other — merging the step's inputs afresh from their first records,
// one partition after another. A partition's step takes its pages from mem
// as it loads inputs (fan-in + 1 at most, as any step), adapts to it exactly
// as the operation's other steps did, and hands every page back before the
// next partition's step starts. It starts at the first NextPage of its
// partition by continuing the operation's merge plan under mem's target
// then: a target that shrank since the operation returned first merges
// inputs down to a last step that fits it, as the plan would have. The runs
// those steps and later splits write are the Stream's, and it frees them.
func (l *LastStep) Stream(mem Broker) *Stream {
	e := *l.e
	e.Mem = mem
	return &Stream{e: &e, cfg: l.cfg, parts: l.parts, st: l.stats}
}

// start plans the next partition's merge down to its last step, on an
// engine of its own, and makes that step the active one, its pages lent to
// the caller.
func (s *Stream) start() error {
	if s.m == nil {
		s.e.emit(EvPhase, 0, "merge") // the operation's phase, not the caller's labels
	}
	inputs := make([]*runInfo, len(s.parts[0]))
	for i, r := range s.parts[0] {
		// A view: a step frees what it consumes, but the runs stay the
		// LastStep's for the next Stream.
		inputs[i] = r.view()
	}
	s.parts = s.parts[1:]
	m := newMergeEngine(s.e, s.cfg, &s.st)
	s.m = m
	inputs, err := m.holdLast(inputs)
	if err != nil {
		return err
	}
	m.hold, m.held = false, false
	root := &mergeStep{inputs: inputs}
	m.startStep(root)
	m.active = root
	return nil
}

// Close frees the step's inputs. No Stream of it may be running.
func (l *LastStep) Close() error {
	var first error
	for _, r := range l.runs {
		if err := r.free(l.e.Store); err != nil && first == nil {
			first = err
		}
	}
	l.runs, l.parts = nil, nil
	return first
}

// Stream is one run of a LastStep: the step's output, page by page, under
// the caller's NextPage.
type Stream struct {
	e      *Env
	cfg    SortConfig
	parts  [][]*runInfo // the partitions not started yet
	m      *mergeEngine // the running partition's engine; nil before the first
	st     SortStats
	next   int // pages of m.w.lent already handed out
	tuples int // records lent
	err    error
}

// NextPage returns the step's next output page, or ok=false once the step
// is done (or has failed: err). The page is the Stream's: it may be read up
// to the next call, and its records copied out and kept, payloads included.
// A Stream that ends — done, failed or closed — holds no page and no run.
func (s *Stream) NextPage() (Page, bool, error) {
	for s.m == nil || s.next >= len(s.m.w.lent) {
		if s.m != nil {
			s.m.w.unlend()
			s.next = 0
		}
		if s.m == nil || s.m.active == nil {
			if s.err != nil || len(s.parts) == 0 {
				return nil, false, s.err
			}
			if err := s.start(); err != nil {
				s.err = err
				s.parts = nil
				s.e.emit(EvPhase, 0, "idle")
				return nil, false, err
			}
			continue
		}
		done, err := s.m.turn()
		if err != nil {
			s.err = err
			s.Close()
			return nil, false, err
		}
		for _, pg := range s.m.w.lent {
			s.tuples += len(pg)
		}
		if done {
			s.m.active = nil
			s.e.yieldAll()
			if len(s.parts) == 0 {
				s.e.emit(EvPhase, 0, "idle")
				s.st.EventPanics = s.e.eventPanics
				if s.st.TuplesIn != 0 && s.tuples != s.st.TuplesIn {
					// A sort's output is every record its split read.
					s.err = fmt.Errorf("core: sort lost tuples: in %d, out %d", s.st.TuplesIn, s.tuples)
				}
			}
		}
	}
	s.next++
	return s.m.w.lent[s.next-1], true, nil
}

// Close ends the Stream early: the runs its splits wrote are freed and its
// pages handed back. Closing an ended Stream does nothing.
func (s *Stream) Close() {
	if s.m == nil {
		s.parts = nil
		return
	}
	if s.m.active != nil || len(s.parts) > 0 {
		s.m.releaseStep(s.m.active) // nil between two partitions' steps
		s.m.active, s.parts = nil, nil
		s.e.emit(EvPhase, 0, "idle")
	}
	s.m.w.unlend()
	s.next = 0
}

// Stats returns the operation's statistics with this Stream's merge work
// added: complete once NextPage has reported the end.
func (s *Stream) Stats() SortStats { return s.st }
