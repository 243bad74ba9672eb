package core

import (
	"fmt"
)

// JoinResult is the outcome of a memory-adaptive sort-merge join: the run
// holding the joined tuples plus statistics.
type JoinResult struct {
	Result RunID
	// Last reads Result back as a one-input last step, when the Env asks
	// for a held last step (StreamLast): the run is then its input, freed by
	// its Close.
	Last   *LastStep
	Pages  int
	Tuples int
	Stats  JoinStats
}

// SortMergeJoin equi-joins two relations on Key using the paper's Section 6
// algorithm: both relations are split into sorted runs with the configured
// in-memory sorting method; the merge phase combines runs from both
// relations concurrently, joining as it merges. When all runs do not fit,
// preliminary steps merge runs from one relation — the one whose k shortest
// runs have the smaller total size, or the one with more runs if the other
// has fewer than k (the paper's modified naive/optimized strategies). All
// three merge-phase adaptation strategies apply.
//
// Joined output records carry the key and the concatenated payloads.
func SortMergeJoin(e *Env, left, right Input, cfg SortConfig) (*JoinResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &JoinStats{}
	t0 := e.now()

	// Split phase: both relations, one after the other. A failed split has
	// already freed its own runs.
	e.In = left
	lruns, err := splitPhase(e, cfg, &st.SortStats)
	if err != nil {
		return nil, fmt.Errorf("core: join split (left): %w", err)
	}
	st.LeftRuns = len(lruns)
	e.In = right
	rruns, err := splitPhase(e, cfg, &st.SortStats)
	if err != nil {
		freeRuns(e, lruns)
		return nil, fmt.Errorf("core: join split (right): %w", err)
	}
	st.RightRuns = len(rruns)
	st.SplitDuration = e.now() - t0

	e.setPhase("merge")
	tm := e.now()
	m := newMergeEngine(e, cfg, &st.SortStats)
	j := &joinEngine{
		m:     m,
		left:  lruns,
		right: rruns,
		lh:    e.newRunHeads(&m.cmp),
		rh:    e.newRunHeads(&m.cmp),
	}
	out, err := j.run()
	if err != nil {
		return nil, err
	}
	st.MergeDuration = e.now() - tm
	st.Response = e.now() - t0
	st.ResultTuples = out.tuples
	e.setPhase("idle")
	st.EventPanics = e.eventPanics // after the last event the operation emits
	if g := e.Mem.Granted(); g > 0 {
		e.Mem.Yield(g)
	}
	res := &JoinResult{Result: out.id, Pages: out.pages, Tuples: out.tuples, Stats: *st}
	if e.StreamLast {
		res.Last = &LastStep{e: e, cfg: cfg, runs: []*runInfo{out}, stats: st.SortStats, tuples: out.tuples}
	}
	return res, nil
}

// joinEngine drives the merge phase of a sort-merge join.
type joinEngine struct {
	m     *mergeEngine
	left  []*runInfo
	right []*runInfo
	out   *runInfo

	// lh and rh select among the left and the right relation's runs in the
	// joint step; like the merge's hh they are built once and reset per
	// (re)build, so a retried step allocates nothing for them.
	lh, rh runHeads

	// group buffers the right-side records of the join key currently being
	// processed. It persists across adaptation interruptions: the gathered
	// records' run cursors have already advanced, so the group is the only
	// copy (it lives in the operator's private workspace, like the per-run
	// current tuples). Its payloads still lie in the pages they were read
	// from, so the joint step gives those pages back as record arrays only
	// (advanceMin).
	group      []Record
	groupKey   Key
	groupValid bool
}

// run executes the join's merge phase. It abandons the join on an error
// through the merge engine's abort on a step spanning both relations' runs
// and the partial output: every run is freed (one an inner merge freed
// already is skipped) and every granted page handed back.
func (j *joinEngine) run() (_ *runInfo, err error) {
	m := j.m
	m.e.setReclaimFn(m.reclaim)
	defer m.e.setReclaimFn(nil)
	defer func() {
		if err != nil {
			m.releaseStep(j.step())
		}
	}()
	if j.out, err = newRun(m.e.owned()); err != nil {
		return nil, err
	}
	for {
		// Merge-step boundary: cancellation is observed here.
		if err := m.e.ctxErr(); err != nil {
			return nil, err
		}
		target := max(m.e.Mem.Target(), minPages)
		need := len(j.left) + len(j.right) + 1
		if need <= target || len(j.left)+len(j.right) <= 2 {
			done, err := j.jointStep()
			if err != nil {
				return nil, err
			}
			if done {
				return j.out, nil
			}
			continue // interrupted by a shortage: re-plan
		}
		if err := j.prelimStep(target); err != nil {
			return nil, err
		}
	}
}

// step is a step over both relations' current runs into the join's output:
// the joint step, for buffer accounting and the adaptation strategies, and
// the span of the abort.
func (j *joinEngine) step() *mergeStep {
	return &mergeStep{inputs: append(append([]*runInfo(nil), j.left...), j.right...), out: j.out}
}

// prelimStep merges k shortest runs of one relation into a longer run,
// choosing k by the merging strategy and the relation by the paper's rule.
func (j *joinEngine) prelimStep(target int) error {
	n := len(j.left) + len(j.right)
	k := firstStepFanIn(n, target, j.m.cfg.Merge, false)
	fromLeft := chooseJoinSide(j.left, j.right, k)
	side := j.right
	if fromLeft {
		side = j.left
	}
	if k > len(side) {
		k = len(side)
	}
	if k < 2 {
		// Degenerate: the chosen side has a single run; merge on the other.
		fromLeft = !fromLeft
		side = j.right
		if fromLeft {
			side = j.left
		}
		k = min(firstStepFanIn(n, target, j.m.cfg.Merge, false), len(side))
		if k < 2 {
			return fmt.Errorf("core: join cannot form a preliminary step (%d+%d runs, target %d)",
				len(j.left), len(j.right), target)
		}
	}
	chosen, rest := pickRuns(side, k, !j.m.cfg.NoShortestFirst)
	merged, err := j.m.mergeSubset(chosen)
	if err != nil {
		return err
	}
	if fromLeft {
		j.left = append(rest, merged)
	} else {
		j.right = append(rest, merged)
	}
	return nil
}

// chooseJoinSide picks the relation for a preliminary merge: if only one
// side has at least k runs, that side (not increasing the number of steps);
// otherwise the side whose k shortest runs total fewer pages.
func chooseJoinSide(left, right []*runInfo, k int) (fromLeft bool) {
	lOK, rOK := len(left) >= k, len(right) >= k
	switch {
	case lOK && !rOK:
		return true
	case rOK && !lOK:
		return false
	case !lOK && !rOK:
		return len(left) >= len(right)
	}
	lSel, _ := pickRuns(left, k, true)
	rSel, _ := pickRuns(right, k, true)
	return sumRemaining(lSel) <= sumRemaining(rSel)
}

// mergeSubset merges exactly the given runs into one run under the engine's
// adaptation strategy. Dynamic splitting may split/combine internally. The
// parent engine's reclaimer is restored afterwards.
func (m *mergeEngine) mergeSubset(runs []*runInfo) (*runInfo, error) {
	sub := newMergeEngine(m.e, m.cfg, m.st)
	out, err := sub.mergeRuns(runs)
	m.e.setReclaimFn(m.reclaim)
	return out, err
}

// jointStep executes the final concurrent merge-join of all current runs of
// both relations. It returns done=false if a memory shortage interrupted it
// under dynamic splitting (the caller then creates a preliminary step).
func (j *joinEngine) jointStep() (bool, error) {
	m := j.m
	st := j.step()
	m.startStep(st) // an interrupted attempt leaves its span open; the retry is a new step
	m.active = st
	defer func() { m.active = nil }()
	for {
		// Adaptation point (page granularity); cancellation is observed here.
		if err := m.e.ctxErr(); err != nil {
			return false, err
		}
		if m.cfg.Adapt == DynSplit {
			m.rebalance(st)
			target := max(m.e.Mem.Target(), minPages)
			if st.need() > target && len(st.inputs) > 2 {
				if err := m.drainOut(st); err != nil {
					return false, err
				}
				m.dropStepBufs(st)
				m.st.Splits++
				m.e.emit(EvSplitStep, len(st.inputs), "")
				return false, nil // caller forms a preliminary step
			}
		} else if err := m.adaptStatic(st); err != nil {
			return false, err
		}

		// (Re)build both sides' selection — buffers may have moved underneath
		// us — then merge-join one output page worth and loop back to adapt.
		res, err := m.rebuild(st, j.left, j.lh)
		if err == nil && res != needAdapt {
			res, err = m.rebuild(st, j.right, j.rh)
		}
		if err == nil && res != needAdapt {
			res, err = j.joinSome(st, j.lh, j.rh)
		}
		if err != nil {
			return false, err
		}
		switch res {
		case stepDone:
			return true, m.finishStep(st)
		case needAdapt:
			if err := m.ensureProgress(st); err != nil {
				return false, err
			}
		}
	}
}

// joinSome advances the merge-join until roughly one output page has been
// produced (or an input blocks / everything is consumed). All state —
// including a half-processed equal-key group — survives interruption, so a
// retry after adaptation resumes exactly where it stopped.
func (j *joinEngine) joinSome(st *mergeStep, lh, rh runHeads) (stepResult, error) {
	m := j.m
	R := m.cfg.PageRecords
	produced := 0
	// Bound the non-producing (skip) work per call so adaptation points stay
	// page-granular even for very selective joins.
	for steps := 0; produced < R && steps < 8*R; steps++ {
		if j.groupValid {
			res, err := j.processGroup(st, lh, rh, &produced)
			if err != nil || res == needAdapt {
				return res, err
			}
			continue
		}
		l, r := lh.min(), rh.min()
		if l == nil || r == nil {
			// One side exhausted, no group pending: no matches remain.
			lDone, err := j.drainAll(st, lh)
			if err != nil {
				return 0, err
			}
			rDone, err := j.drainAll(st, rh)
			if err != nil {
				return 0, err
			}
			if lDone && rDone {
				return stepDone, nil
			}
			return needAdapt, nil
		}
		switch {
		case l.ws.Key < r.ws.Key:
			if blocked, err := m.advanceMin(st, lh); err != nil || blocked {
				return needAdapt, err
			}
		case l.ws.Key > r.ws.Key:
			if blocked, err := m.advanceMin(st, rh); err != nil || blocked {
				return needAdapt, err
			}
		default:
			// Equal keys: open a group; the next iteration gathers the
			// right-side records and emits the cross product.
			j.group = j.group[:0]
			j.groupKey = l.ws.Key
			j.groupValid = true
		}
	}
	if err := m.flushOut(st); err != nil {
		return 0, err
	}
	return pageProduced, nil
}

// processGroup finishes the pending equal-key group: it gathers any
// remaining right-side records of the key (the gathered copies live in the
// operator workspace — standard sort-merge-join group handling), emits the
// cross product with every left record of the key, and closes the group.
// Interruptions leave the group pending for the next call.
func (j *joinEngine) processGroup(st *mergeStep, lh, rh runHeads, produced *int) (stepResult, error) {
	m := j.m
	R := m.cfg.PageRecords
	key := j.groupKey
	for r := rh.min(); r != nil && r.ws.Key == key; r = rh.min() {
		j.group = append(j.group, r.ws)
		if blocked, err := m.advanceMin(st, rh); err != nil || blocked {
			return needAdapt, err
		}
	}
	for ll := lh.min(); ll != nil && ll.ws.Key == key; ll = lh.min() {
		for _, g := range j.group {
			payload := make([]byte, 0, len(ll.ws.Payload)+len(g.Payload))
			payload = append(payload, ll.ws.Payload...)
			payload = append(payload, g.Payload...)
			m.w.add(Record{Key: key, Payload: payload})
			*produced++
			m.e.charge(OpCopyTuple, 1)
			if m.w.n >= R {
				if err := m.flushOut(st); err != nil {
					return 0, err
				}
			}
		}
		m.e.charge(OpCompare, int64(len(j.group)))
		// The left record is fully emitted before advancing, and advanceRun
		// invalidates its workspace first, so a block here cannot double- or
		// under-emit on retry.
		if blocked, err := m.advanceMin(st, lh); err != nil || blocked {
			return needAdapt, err
		}
	}
	j.groupValid = false
	return pageProduced, nil
}

// drainAll consumes the rest of one side without emitting (no matches
// remain). Returns done=false if a load blocked on memory.
func (j *joinEngine) drainAll(st *mergeStep, hh runHeads) (done bool, err error) {
	for hh.min() != nil {
		if blocked, err := j.m.advanceMin(st, hh); err != nil || blocked {
			return false, err
		}
	}
	return true, nil
}
