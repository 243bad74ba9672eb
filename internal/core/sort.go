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
	// Last is the merge's last step, held back (Env.StreamLast): the output
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
// input run, that run is returned unchanged — or, under a held last step,
// is that step's one input.
func MergeExisting(e *Env, cfg SortConfig, ids []RunID) (*SortResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &SortStats{}
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
	out, last, err := mergePhase(e, cfg, st, runs)
	if err != nil {
		return nil, err
	}
	st.MergeDuration = e.now() - t0
	return finishSort(e, st, t0, out, last), nil
}

// ExternalSort sorts e.In under cfg, writing the final sorted output into
// e.Store. It adapts its memory usage to e.Mem throughout — the paper's
// memory-adaptive external sort: a split phase, then a merge phase, both on
// the caller's goroutine. The output is one stored run or the held last
// step of the merge (SortResult.Last, under Env.StreamLast). An aborted sort leaves no storage and
// no granted page behind.
func ExternalSort(e *Env, cfg SortConfig) (*SortResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &SortStats{}
	t0 := e.now()
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	runs, err := splitPhase(e, cfg, st)
	if err != nil {
		return nil, err
	}
	st.SplitDuration = e.now() - t0
	tm := e.now()
	out, last, err := mergePhase(e, cfg, st, runs)
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
// the stored output — or the held last step's inputs — summed into the
// result.
func finishSort(e *Env, st *SortStats, t0 time.Duration, out *runInfo, last *LastStep) *SortResult {
	st.Response = e.now() - t0
	e.setPhase("idle")
	st.EventPanics = e.eventPanics // after the last event the operation emits
	e.yieldAll()
	res := &SortResult{Last: last, Stats: *st}
	if last != nil {
		last.stats = *st
		for _, r := range last.runs {
			res.Tuples += r.tuples
		}
	} else {
		res.Result, res.Pages, res.Tuples = out.id, out.pages, out.tuples
	}
	return res
}

// mergePhase merges runs, consuming them, into the operation's stored
// output run — or, when e.StreamLast asks for it, up to its last step,
// which it holds for the consumer whatever the number of runs: over one run
// the step reads it, over none it hands out nothing. The merge runs on the
// caller's goroutine under the operation's whole target.
func mergePhase(e *Env, cfg SortConfig, st *SortStats, runs []*runInfo) (*runInfo, *LastStep, error) {
	e.setPhase("merge")
	if e.StreamLast {
		held, err := newMergeEngine(e, cfg, st).holdLast(runs)
		if err != nil {
			return nil, nil, err
		}
		return nil, &LastStep{e: e, cfg: cfg, runs: held, tuples: st.TuplesIn}, nil
	}
	switch len(runs) {
	case 0:
		// Empty input still yields a (empty) result run.
		out, err := newRun(e.Store)
		return out, nil, err
	case 1:
		return runs[0], nil, nil
	}
	out, err := newMergeEngine(e, cfg, st).mergeRuns(runs)
	return out, nil, err
}

// LastStep is the last merge step of a sort or merge — or the read of a
// join's output run, a step of one input — held back from the store when
// the Env asks for it (StreamLast): the paper's final merge step handing
// its output to the operation's consumer instead of writing it. Its
// inputs are stored runs, kept until Close; its output is whatever a Stream
// of it produces. A LastStep, like its operation, belongs to one goroutine
// at a time.
type LastStep struct {
	e     *Env
	cfg   SortConfig
	runs  []*runInfo // the step's inputs, freed by Close
	stats SortStats  // the operation's, as it returned
	// tuples is what a complete Stream must hand out: a sort's input, a
	// join's output; 0 when unknown (a merge of runs it did not write).
	tuples int
}

// Stream starts one run of the step against mem — the operation's broker,
// or any other — merging the step's inputs afresh from their first records.
// The run takes its pages from mem as it loads inputs — its fan-in at most:
// one page per input, and no output page, since it hands its records to its
// caller — and adapts to it exactly as the operation's other steps did.
// It starts at the first Next by continuing the operation's merge plan
// under mem's target then: a target that shrank since the operation
// returned first merges inputs down to a last step that fits it, as the
// plan would have. The runs those steps and later splits write are the
// Stream's, and it frees them.
func (l *LastStep) Stream(mem Broker) *Stream {
	e := *l.e
	e.Mem = mem
	s := &Stream{st: l.stats, want: l.tuples}
	s.m = newMergeEngine(&e, l.cfg, &s.st)
	s.inputs = make([]*runInfo, len(l.runs))
	for i, r := range l.runs {
		// Shared: a step frees what it consumes, but these stay the
		// LastStep's for the next Stream.
		s.inputs[i] = &runInfo{id: r.id, pages: r.pages, shared: true}
	}
	return s
}

// start plans the Stream's merge down to its last step and makes that step
// the active one, its records handed to the caller.
func (s *Stream) start() error {
	m := s.m
	m.e.emit(EvPhase, 0, "merge") // the operation's phase, not the caller's labels
	inputs, err := m.holdLast(s.inputs)
	s.inputs = nil
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
	l.runs = nil
	return first
}

// Stream is one run of a LastStep: the step's output, record by record,
// under the caller's Next, straight from the step's selection — no output
// page between them.
type Stream struct {
	m      *mergeEngine
	st     SortStats
	inputs []*runInfo // the step's inputs until the Stream starts
	left   int        // records to hand out before the next adaptation point
	then   stepResult // what stopped the step: emit's, acted on at the next round
	tuples int        // records handed out
	want   int        // records a complete Stream hands out; 0: unknown
	billed int        // of them, charged to the meter
	err    error
}

// Next returns the step's next record, or ok=false once the step is done
// (or has failed: err). The record's payload is the caller's to keep. Every
// cfg.PageRecords records — the page boundary of a step that writes a run —
// cancellation is observed and the step adapts to its broker; a preliminary
// step a shrink splits off runs to its end inside one Next. A Stream that
// ends — done, failed or closed — holds no page and no run. A Stream fails
// unless it produced every record its step is known to hold (LastStep).
func (s *Stream) Next() (Record, bool, error) {
	m := s.m
	if s.inputs != nil {
		if err := s.start(); err != nil {
			s.err = err
			m.e.emit(EvPhase, 0, "idle")
			return Record{}, false, err
		}
	}
	for m.active != nil {
		st := m.active
		var done bool
		var err error
		switch {
		case st.out != nil:
			// A preliminary step: it writes its run, page by page. Its
			// parent adapts before it hands out a record again.
			done, err = m.turn()
			s.left = 0
		case s.then != pageProduced:
			done, err = m.stopped(st, s.then)
			s.then, s.left = pageProduced, 0
		case s.left == 0:
			s.charge()
			err = m.adaptPoint()
			s.left = m.cfg.PageRecords
		default:
			var rec Record
			var ok bool
			if rec, ok, s.then, err = m.emit(st); ok {
				s.left--
				s.tuples++
				return rec, true, nil
			}
		}
		if err != nil {
			s.err = err
			s.Close()
			return Record{}, false, err
		}
		if done {
			m.active = nil
			s.charge()
			m.e.yieldAll()
			m.e.emit(EvPhase, 0, "idle")
			s.st.EventPanics = m.e.eventPanics
			if s.want != 0 && s.tuples != s.want {
				s.err = fmt.Errorf("core: last step lost tuples: want %d, out %d", s.want, s.tuples)
			}
		}
	}
	return Record{}, false, s.err
}

// charge charges the records handed out since the last charge.
func (s *Stream) charge() {
	s.m.chargeMerge(s.tuples - s.billed)
	s.billed = s.tuples
}

// Close ends the Stream early: the runs its splits wrote are freed and its
// pages handed back. Closing an ended Stream does nothing.
func (s *Stream) Close() {
	if s.m.active != nil {
		s.m.releaseStep(s.m.active)
		s.m.active = nil
		s.m.e.emit(EvPhase, 0, "idle")
	}
	s.inputs = nil
}

// Stats returns the operation's statistics with this Stream's merge work
// added: complete once Next has reported the end.
func (s *Stream) Stats() SortStats { return s.st }
