package core

import (
	"bytes"
	"errors"
	"fmt"
)

// mergeStep is one node of the merge plan. Under dynamic splitting the plan
// is a chain: the root merges everything; when memory shrinks, a
// preliminary sub-step is split off and becomes active; when memory grows,
// the active step's parent "drains" the sub-step's output and then absorbs
// its inputs (paper §3.2.3, Figures 2 and 3).
type mergeStep struct {
	inputs []*runInfo
	out    *runInfo
	parent *mergeStep

	// id numbers the step within the operation (assigned by startStep) for
	// event correlation; steps interleave under dynamic splitting.
	id int

	// drainOf marks combine-in-progress: this step must fully consume
	// drainOf.out before absorbing drainOf's inputs.
	drainOf *mergeStep
}

// need returns the step's buffer requirement: one page per input run plus
// one output page.
func (s *mergeStep) need() int { return len(s.inputs) + 1 }

// stepResult tells the engine why page production stopped.
type stepResult int

const (
	pageProduced stepResult = iota // one output page flushed; keep going
	stepDone                       // all inputs exhausted; step complete
	drainEmpty                     // the drained run is empty: absorb now
	needAdapt                      // memory shortage mid-page: adapt first
)

// mergeEngine executes the merge phase of one sort against an Env.
type mergeEngine struct {
	e   *Env
	cfg SortConfig
	st  *SortStats

	active  *mergeStep
	curStep *mergeStep // step whose buffers the reclaimer may take

	w        runWriter // the output block under construction and in flight
	mruClock int64
	cmp      int64 // comparison charges accumulated between flushes

	// hh selects among the active step's runs. It persists across output
	// pages — rebuilding it per page costs Θ(fan-in) comparisons — and is
	// invalidated only when the step's run set changes (split, combine) or a
	// run blocks mid-advance.
	hh      runHeads
	hhStep  *mergeStep // step hh was built for
	hhValid bool

	// pends is load's and batchLoad's list of reads issued and not yet
	// waited for; neither runs inside the other, and each leaves it empty.
	pends []pendingRead
}

// pendingRead is one issued read of page idx of run r.
type pendingRead struct {
	r   *runInfo
	idx int
	tok PageToken
}

// keepPends takes the scratch list back from load or batchLoad, grown as it
// may be, dropping the tokens so that the list pins no page.
func (m *mergeEngine) keepPends(pends []pendingRead) {
	clear(pends)
	m.pends = pends[:0]
}

// invalidateHeap forces the next produceOnePage to rebuild hh.
func (m *mergeEngine) invalidateHeap() { m.hhValid = false }

// newMergeEngine builds an engine whose output writer is bound to e's store.
func newMergeEngine(e *Env, cfg SortConfig, st *SortStats) *mergeEngine {
	m := &mergeEngine{e: e, cfg: cfg, st: st,
		w: runWriter{store: e.Store, recs: cfg.PageRecords, released: &st.MergePagesReleased}}
	m.hh = e.newRunHeads(&m.cmp)
	return m
}

// mergeRuns merges runs into a single result run under the configured
// merging strategy and adaptation strategy.
func (m *mergeEngine) mergeRuns(runs []*runInfo) (*runInfo, error) {
	m.e.setReclaimFn(m.reclaim)
	defer m.e.setReclaimFn(nil)
	if m.cfg.Adapt == DynSplit {
		return m.runDynamic(runs)
	}
	return m.runStatic(runs)
}

// reclaim is invoked synchronously by the buffer manager when a competing
// request arrives: clean input buffers (and any unpinned surplus) are given
// up immediately. The run cursors live in workspace records, so dropping a
// buffer never loses the merge position — only its later re-read costs I/O.
func (m *mergeEngine) reclaim(need int) int {
	st := m.active
	if st == nil {
		st = m.curStep
	}
	yielded := 0
	held := 1 // never give up the output buffer
	if st != nil {
		held = m.heldPages(st)
	}
	if free := m.e.Mem.Granted() - held; free > 0 {
		y := min(free, need)
		m.e.Mem.Yield(y)
		yielded += y
	}
	for yielded < need && st != nil {
		before := m.heldPages(st)
		if !m.evictMRU(st) {
			break
		}
		freed := before - m.heldPages(st)
		y := min(freed, m.e.Mem.Granted())
		if y <= 0 {
			break
		}
		m.e.Mem.Yield(y)
		yielded += y
	}
	return yielded
}

// releaseStep abandons a merge after an error: the in-flight write is
// awaited, every run still owned by the step chain (inputs, outputs, and a
// combine-in-progress sub-step's runs) is freed, and all granted pages are
// handed back. This is the no-leak guarantee for canceled operations.
func (m *mergeEngine) releaseStep(st *mergeStep) {
	_ = m.w.wait()
	m.invalidateHeap()
	seen := map[*mergeStep]bool{}
	var visit func(*mergeStep)
	visit = func(s *mergeStep) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		for _, r := range s.inputs {
			_ = r.free(m.e.Store)
		}
		_ = s.out.free(m.e.Store)
		visit(s.parent)
		visit(s.drainOf)
	}
	visit(st)
	m.e.yieldAll()
}

// ---- static plans (suspension & paging) ----

// runStatic implements static splitting (paper §2.2): the fan-in of each
// step is fixed when the step starts, from the memory available then; a
// started step executes to completion, adapting only through suspension or
// paging. Excess memory beyond the step's requirement goes unused.
func (m *mergeEngine) runStatic(runs []*runInfo) (*runInfo, error) {
	pool := append([]*runInfo(nil), runs...)
	// fail abandons the plan between steps: nothing is in flight, so the
	// pooled runs are freed and the grant handed back.
	fail := func(err error) (*runInfo, error) {
		freeRuns(m.e, pool)
		m.e.yieldAll()
		return nil, err
	}
	for len(pool) > 1 {
		// Step boundary: cancellation is observed here.
		if err := m.e.ctxErr(); err != nil {
			return fail(err)
		}
		// Unpinned surplus between steps is released immediately.
		if p := m.e.Mem.Pressure(); p > 0 {
			m.e.Mem.Yield(min(p, m.e.Mem.Granted()))
		}
		t := m.e.Mem.Target()
		if t == 0 {
			// Parked by the crew between steps: plan the next step from the
			// share that comes back, not from nothing.
			if err := m.suspend(nil, 1); err != nil {
				return fail(err)
			}
			continue
		}
		k := firstStepFanIn(len(pool), max(t, m.cfg.MinPages), m.cfg.Merge)
		chosen, rest := pickRuns(pool, k, !m.cfg.NoShortestFirst)
		out, err := newRun(m.e.Store)
		if err != nil {
			return fail(err)
		}
		st := &mergeStep{inputs: chosen, out: out}
		out.producer = st
		m.startStep(st)
		if err := m.executeStep(st); err != nil {
			m.releaseStep(st)
			freeRuns(m.e, rest)
			return nil, err
		}
		pool = append(rest, out)
	}
	return pool[0], nil
}

// executeStep runs one static merge step to completion.
func (m *mergeEngine) executeStep(st *mergeStep) error {
	m.curStep = st
	defer func() { m.curStep = nil }()
	for {
		// Output-page boundary: cancellation is observed here.
		if err := m.e.ctxErr(); err != nil {
			return err
		}
		if err := m.adaptStatic(st); err != nil {
			return err
		}
		res, err := m.produceOnePage(st)
		if err != nil {
			return err
		}
		switch res {
		case stepDone:
			return m.finishStep(st)
		case drainEmpty:
			return errors.New("core: drain result in static plan")
		case needAdapt:
			if err := m.adaptStatic(st); err != nil {
				return err
			}
			if err := m.ensureProgress(st); err != nil {
				return err
			}
		}
	}
}

// adaptStatic handles memory fluctuation between output pages for the
// suspension and paging strategies.
func (m *mergeEngine) adaptStatic(st *mergeStep) error {
	m.rebalance(st)
	t := m.e.Mem.Target()
	if m.cfg.Adapt == Suspend {
		need := st.need()
		if t >= need {
			return nil
		}
		if err := m.suspend(st, need); err != nil {
			return err
		}
		// Resume: refetch all input buffers together (one elevator sweep).
		return m.batchLoad(st)
	}
	if t == 0 {
		return m.suspend(st, 1) // parked by the crew
	}
	// Paging: shrink residency to the budget; page faults handle the rest.
	budget := m.pagingBudget(st, t)
	for m.heldPages(st) > budget {
		if !m.evictMRU(st) {
			break
		}
	}
	m.rebalance(st)
	return nil
}

// suspend is the one suspension sequence: flush the partial output page,
// drop every input buffer of st, hand all pages back, and wait — interrupted
// only by cancellation — until the target reaches `until` pages. The
// suspension strategy waits for the step's whole requirement; a worker the
// crew parked (target 0, which no broker reports on its own: they all floor
// at MinPages or more) waits for any share at all, under every strategy.
// st is nil between steps, when there is nothing to flush or drop. The run
// cursors live in workspace records, so merging resumes where it stopped.
func (m *mergeEngine) suspend(st *mergeStep, until int) error {
	if st != nil {
		if err := m.drainOut(st); err != nil {
			return err
		}
		for _, r := range st.inputs {
			r.drop()
		}
	}
	m.e.Mem.Yield(m.e.Mem.Granted())
	m.st.Suspensions++
	m.e.emit(EvSuspend, until, "")
	if err := m.e.waitTarget(until); err != nil {
		return err
	}
	m.e.Mem.Acquire(until - m.e.Mem.Granted())
	m.e.emit(EvResume, until, "")
	return nil
}

// pagingBudget is how many pages the paging strategy may keep resident
// under the given target.
func (m *mergeEngine) pagingBudget(st *mergeStep, target int) int {
	return min(max(target, m.cfg.MinPages), st.need())
}

// evictMRU drops the most recently used resident input buffer (the paper's
// MRU replacement policy for merge paging). Returns false if nothing is
// resident.
func (m *mergeEngine) evictMRU(st *mergeStep) bool {
	var victim *runInfo
	for _, r := range st.inputs {
		if r.loaded() == 0 {
			continue
		}
		if victim == nil || r.lastUsed > victim.lastUsed {
			victim = r
		}
	}
	if victim == nil {
		return false
	}
	victim.drop()
	return true
}

// batchLoad issues reads for every input that needs its current page and
// waits for all of them (suspension's batched refetch).
func (m *mergeEngine) batchLoad(st *mergeStep) error {
	pends := m.pends[:0]
	defer func() { m.keepPends(pends) }()
	for _, r := range st.inputs {
		if !r.needsLoad() {
			continue
		}
		if !m.ensureSlot(st) {
			break // shortage right after resume: the next adapt round retries
		}
		m.noteRead(r, r.page)
		pends = append(pends, pendingRead{r, r.page, m.e.Store.ReadAsync(r.id, r.page)})
	}
	for _, p := range pends {
		pg, err := waitPage(p.tok)
		if err != nil {
			return err
		}
		p.r.bufs = append(p.r.bufs, pg)
	}
	return nil
}

// waitPage completes a merge read, keeping the token's release handle with
// the page when the store offers one.
func waitPage(tok PageToken) (inPage, error) {
	recs, err := tok.Wait()
	rel, _ := tok.(PageReleaser)
	return inPage{recs, rel}, err
}

// ---- dynamic splitting ----

// runDynamic implements the paper's dynamic splitting strategy. The merge
// phase starts with a single step combining all runs; adaptation splits and
// combines steps as memory fluctuates.
func (m *mergeEngine) runDynamic(runs []*runInfo) (*runInfo, error) {
	out, err := newRun(m.e.Store)
	if err != nil {
		freeRuns(m.e, runs)
		m.e.yieldAll()
		return nil, err
	}
	root := &mergeStep{inputs: append([]*runInfo(nil), runs...), out: out}
	out.producer = root
	m.startStep(root)
	m.active = root
	defer func() { m.active = nil }()
	for {
		// Output-page boundary: cancellation is observed here. The whole
		// step chain (splits in progress included) is released on abort.
		if err := m.e.ctxErr(); err != nil {
			m.releaseStep(m.active)
			return nil, err
		}
		if err := m.adaptDynamic(); err != nil {
			m.releaseStep(m.active)
			return nil, err
		}
		st := m.active
		res, err := m.produceOnePage(st)
		if err != nil {
			m.releaseStep(m.active)
			return nil, err
		}
		switch res {
		case stepDone:
			if err := m.finishStep(st); err != nil {
				m.releaseStep(m.active)
				return nil, err
			}
			if st.parent == nil {
				return st.out, nil
			}
			m.active = st.parent
		case drainEmpty:
			if err := m.absorb(st); err != nil {
				m.releaseStep(m.active)
				return nil, err
			}
		case needAdapt:
			if err := m.adaptDynamic(); err != nil {
				m.releaseStep(m.active)
				return nil, err
			}
			if err := m.ensureProgress(m.active); err != nil {
				m.releaseStep(m.active)
				return nil, err
			}
		}
	}
}

// adaptDynamic enforces the dynamic-splitting invariant (active step fits in
// the current target), splits on shrink, and initiates combining on growth.
func (m *mergeEngine) adaptDynamic() error {
	st := m.active
	m.rebalance(st)
	t := m.e.Mem.Target()
	if t == 0 { // parked by the crew
		if err := m.suspend(st, 1); err != nil {
			return err
		}
		t = m.e.Mem.Target()
	}
	target := max(t, m.cfg.MinPages)
	if st.drainOf != nil {
		if st.need() > target {
			// Shrunk mid-combine: abort the drain and fall back to the
			// preliminary step (its state is untouched — it simply resumes).
			prelim := st.drainOf
			st.drainOf = nil
			if err := m.drainOut(st); err != nil {
				return err
			}
			m.dropStepBufs(st)
			m.active = prelim
			m.st.Combines-- // the combine did not happen after all
			m.e.emit(EvCombineAbort, 0, "")
			return m.adaptDynamic()
		}
		return nil
	}
	if st.need() > target {
		return m.splitActive(target)
	}
	// Memory grew: combine the active step into its parent if everything
	// fits (paper Figure 3 — drain the partial output first).
	if !m.cfg.NoCombine && st.parent != nil {
		combinedNeed := len(st.parent.inputs) - 1 + len(st.inputs) + 1
		if combinedNeed <= target {
			if err := m.drainOut(st); err != nil {
				return err
			}
			m.dropStepBufs(st)
			st.parent.drainOf = st
			m.active = st.parent
			m.st.Combines++
			m.e.emit(EvCombineStart, combinedNeed, "")
			m.rebalance(st.parent)
		}
	}
	return nil
}

// splitActive splits the active step until it fits within target pages
// (paper Figure 2). The sub-step takes the k shortest remaining inputs,
// where k follows the configured merging strategy.
func (m *mergeEngine) splitActive(target int) error {
	st := m.active
	if err := m.drainOut(st); err != nil {
		return err
	}
	for st.need() > target {
		n := len(st.inputs)
		k := firstStepFanIn(n, target, m.cfg.Merge)
		if k >= n {
			break // cannot shrink further (n == 2 and target == MinPages)
		}
		chosen, rest := pickRuns(st.inputs, k, !m.cfg.NoShortestFirst)
		m.dropStepBufs(st)
		out, err := newRun(m.e.Store)
		if err != nil {
			return err
		}
		sub := &mergeStep{inputs: chosen, out: out, parent: st}
		out.producer = sub
		st.inputs = append([]*runInfo{out}, rest...)
		st = sub
		m.st.Splits++
		m.e.emit(EvSplitStep, len(chosen), "")
		m.startStep(sub)
	}
	m.invalidateHeap() // run sets changed on every step along the chain
	m.active = st
	m.rebalance(st)
	return nil
}

// absorb completes a combine: the drained sub-step's inputs replace its
// (fully consumed) output run in the parent.
func (m *mergeEngine) absorb(st *mergeStep) error {
	prelim := st.drainOf
	if prelim == nil {
		return errors.New("core: absorb without drain")
	}
	st.drainOf = nil
	drained := prelim.out
	if !drained.exhausted() {
		return fmt.Errorf("core: absorbing non-exhausted run %v", drained)
	}
	inputs := st.inputs[:0:0]
	for _, r := range st.inputs {
		if r != drained {
			inputs = append(inputs, r)
		}
	}
	st.inputs = append(inputs, prelim.inputs...)
	if !m.enterAbsorbed(st, prelim.inputs) {
		m.invalidateHeap()
	}
	m.e.emit(EvCombineDone, len(st.inputs), "")
	return drained.free(m.e.Store)
}

// enterAbsorbed adds the runs a combine brought in to the selection structure
// standing for st, whose drained run has already left it: no rebuild. It
// declines — the caller invalidates — when the structure is not st's or takes
// no late entries, and when a run must be advanced first (that can block on
// memory, which the rebuild handles).
func (m *mergeEngine) enterAbsorbed(st *mergeStep, runs []*runInfo) bool {
	if !m.hh.absorbs() || !m.hhValid || m.hhStep != st {
		return false
	}
	for _, r := range runs {
		if !r.wsValid && !r.exhausted() {
			return false
		}
	}
	for _, r := range runs {
		if r.wsValid {
			m.hh.push(r)
		}
	}
	return true
}

// ---- shared execution ----

// heldPages counts resident buffers: the output page plus loaded inputs.
func (m *mergeEngine) heldPages(st *mergeStep) int {
	h := 1
	for _, r := range st.inputs {
		h += r.loaded()
	}
	return h
}

// ensureProgress is called after an adaptation pass when page production
// still could not obtain a buffer. With a single-operator pool this cannot
// happen (entitlement implies availability); with a shared pool the
// operator may be entitled to another page while a sibling still holds it,
// so we park until the pool changes instead of spinning. The park is
// interrupted by cancellation, whose error is returned.
func (m *mergeEngine) ensureProgress(st *mergeStep) error {
	if st == nil {
		return nil
	}
	held := m.heldPages(st)
	g := m.e.Mem.Granted()
	if g > held {
		return nil // an unpinned page is already granted; retry will use it
	}
	if m.e.Mem.Target() <= held {
		return nil // not entitled to more: the adaptation strategy handles it
	}
	if m.e.Mem.Acquire(held+1-g) > 0 {
		return nil
	}
	return m.e.waitChange()
}

// shedReadAhead drops up to n tail read-ahead pages (never a run's current
// page), freeing grant room. They will be re-read later — counted as extra
// merge I/O. Returns the number of pages freed.
func (m *mergeEngine) shedReadAhead(st *mergeStep, n int) int {
	freed := 0
	for freed < n {
		var victim *runInfo
		for _, r := range st.inputs {
			if r.loaded() > 1 && (victim == nil || r.loaded() > victim.loaded()) {
				victim = r
			}
		}
		if victim == nil {
			break
		}
		victim.bufs = victim.bufs[:len(victim.bufs)-1]
		freed++
	}
	return freed
}

// rebalance releases unpinned granted pages when the broker wants them back.
// Merge-phase releases are immediate (paper: merge delays < 1 ms) since
// input buffers are clean; read-ahead buffers beyond each run's current
// page are shed first when needed.
func (m *mergeEngine) rebalance(st *mergeStep) {
	p := m.e.Mem.Pressure()
	if p <= 0 {
		return
	}
	free := m.e.Mem.Granted() - m.heldPages(st)
	if free > 0 {
		y := min(free, p)
		m.e.Mem.Yield(y)
		p -= y
	}
	if p > 0 {
		if freed := m.shedReadAhead(st, p); freed > 0 {
			m.e.Mem.Yield(min(freed, m.e.Mem.Granted()))
		}
	}
}

// dropStepBufs releases every resident input buffer of st (used when the
// step is deactivated; reloading later is the step-switch overhead the
// paper describes).
func (m *mergeEngine) dropStepBufs(st *mergeStep) {
	for _, r := range st.inputs {
		r.drop()
	}
	m.rebalance(st)
}

// ensureSlot makes room for loading one more page. Under paging it evicts
// the MRU buffer when at budget; otherwise it acquires from the broker and
// reports false if the target does not allow another page.
func (m *mergeEngine) ensureSlot(st *mergeStep) bool {
	held := m.heldPages(st)
	if m.cfg.Adapt == Paging {
		if held >= m.pagingBudget(st, m.e.Mem.Target()) {
			if !m.evictMRU(st) {
				return false
			}
			held = m.heldPages(st)
		}
	}
	g := m.e.Mem.Granted()
	if g >= held+1 {
		return true
	}
	m.e.Mem.Acquire(held + 1 - g)
	if m.e.Mem.Granted() >= held+1 {
		return true
	}
	// The grant cannot grow (target shrank under our buffers): make room by
	// shedding read-ahead pages loaded when memory was plentiful.
	if m.shedReadAhead(st, held+1-m.e.Mem.Granted()) > 0 {
		return m.e.Mem.Granted() >= m.heldPages(st)+1
	}
	return false
}

// readAhead returns how many pages to load per input at a time. The
// adaptive-block-I/O extension (paper §7 future work) spends surplus pages
// on read-ahead; classic behavior is one page.
func (m *mergeEngine) readAhead(st *mergeStep) int {
	if !m.cfg.AdaptiveBlockIO || m.cfg.Adapt == Paging {
		return 1
	}
	surplus := m.e.Mem.Target() - st.need()
	if surplus <= 0 {
		return 1
	}
	extra := surplus / max(len(st.inputs), 1)
	return 1 + min(extra, 7)
}

func (m *mergeEngine) noteRead(r *runInfo, page int) {
	m.st.MergePagesRead++
	if page < r.hiLoaded {
		m.st.ExtraMergeReads++
	} else {
		r.hiLoaded = page + 1
	}
}

// load brings up to `ahead` consecutive pages of r into memory. Returns
// ok=false if no buffer slot could be obtained for the first page. A fetched
// page is discarded (I/O cost still paid) if the reclaimer took the buffers
// underneath it while the read was in flight; the outer loop then retries.
func (m *mergeEngine) load(st *mergeStep, r *runInfo, ahead int) (bool, error) {
	toks := m.pends[:0]
	defer func() { m.keepPends(toks) }()
	for r.needsLoad() {
		n := r.pages - r.page
		if n > ahead {
			n = ahead
		}
		clear(toks)
		toks = toks[:0]
		for i := 0; i < n; i++ {
			if !m.ensureSlot(st) {
				if len(toks) > 0 {
					break // partial read-ahead is fine
				}
				return false, nil
			}
			idx := r.page + len(r.bufs) + len(toks)
			m.noteRead(r, idx)
			toks = append(toks, pendingRead{r, idx, m.e.Store.ReadAsync(r.id, idx)})
		}
		for _, pr := range toks {
			pg, err := waitPage(pr.tok)
			if err != nil {
				return false, err
			}
			if pr.idx == r.page+len(r.bufs) {
				r.bufs = append(r.bufs, pg)
			}
		}
	}
	return true, nil
}

// flushOut appends the writer's pending block — its full pages and the
// (possibly partial) page under construction — to the step's output run
// asynchronously, waiting for the previous flush first. The block belongs to
// st: every path that turns the engine to another step drains it first
// (finishStep, suspend, and adaptDynamic's and splitActive's step switches),
// because a combine reads st.out and a split writes somebody else's.
func (m *mergeEngine) flushOut(st *mergeStep) error {
	n := m.w.n
	pages, err := m.w.flush(st.out)
	if err != nil || pages == 0 {
		return err
	}
	m.st.MergePagesWritten += pages
	m.e.charge(OpCopyTuple, int64(n))
	m.e.charge(OpCompare, m.cmp)
	m.cmp = 0
	return nil
}

// drainOut flushes the pending block and waits until it is durable.
func (m *mergeEngine) drainOut(st *mergeStep) error {
	if err := m.flushOut(st); err != nil {
		return err
	}
	return m.w.wait()
}

// finishStep completes a step: waits for the last write, frees the consumed
// input runs and marks the output complete.
func (m *mergeEngine) finishStep(st *mergeStep) error {
	if err := m.drainOut(st); err != nil {
		return err
	}
	for _, r := range st.inputs {
		if r.producer != nil {
			return fmt.Errorf("core: finishing step with live producer on %v", r)
		}
		if err := r.free(m.e.Store); err != nil {
			return err
		}
	}
	st.out.producer = nil
	m.invalidateHeap()
	m.st.MergeSteps++
	m.e.emitStep(EvStepDone, len(st.inputs), st.id, "")
	if g := m.e.Mem.Granted(); g > m.st.MaxGranted {
		m.st.MaxGranted = g
	}
	return nil
}

// startStep assigns the step its operation-wide id and announces it. The
// fan-in reported here is the step's initial one; under dynamic splitting
// it may shrink before EvStepDone reports the final fan-in.
func (m *mergeEngine) startStep(st *mergeStep) {
	st.id = m.e.nextStep()
	m.e.emitStep(EvStepStart, len(st.inputs), st.id, "")
}

// runHeads is the selection structure of a merge or of one side of a join:
// the step's runs that hold a workspace record, ordered by that record (key,
// then payload bytes). Which implementation a host gets (Env.newRunHeads)
// changes which comparisons are made, never which run is the minimum.
type runHeads interface {
	// reset empties the structure ahead of pushing up to n runs.
	reset(n int)
	// push enters a run whose workspace is valid.
	push(r *runInfo)
	// absorbs reports whether push is also good on a structure in use; if
	// not, a run joins only by reset and pushing every run anew.
	absorbs() bool
	// min returns the run holding the smallest record, nil when none is left.
	min() *runInfo
	// fixMin restores order after min's workspace moved to its next record.
	fixMin()
	// popMin removes min, which ran dry.
	popMin()
}

// newRunHeads returns the host's selection structure for merging, charging
// its comparisons to *cmp: the loser tree for the real engine, the counted
// binary heap where the host asks for it (the simulator, whose CPU model is
// calibrated on the heap's comparisons).
func (e *Env) newRunHeads(cmp *int64) runHeads {
	if e.ClassicSelection {
		return &headHeap{cmp: cmp}
	}
	h := &headTree{}
	h.t.tie, h.t.cmp = h.payloadLess, cmp
	return h
}

// headTree is the loser tree over the runs' current records: a leaf's head
// is its run's workspace key, cached, under tag 0; a run that runs dry turns
// its leaf idle, where a run absorbed later can enter.
type headTree struct {
	t    loserTree
	runs []*runInfo // by leaf; nil at an idle leaf
}

// payloadLess breaks a key tie between two live leaves.
func (h *headTree) payloadLess(a, b int32) bool {
	return bytes.Compare(h.runs[a].ws.Payload, h.runs[b].ws.Payload) < 0
}

func (h *headTree) reset(n int) {
	clear(h.runs)
	h.t.reset(n)
	h.runs = leafSlots(h.runs, &h.t)
}

func (h *headTree) push(r *runInfo) {
	leaf := h.t.take()
	h.runs = leafSlots(h.runs, &h.t)
	h.runs[leaf] = r
	h.t.heads[leaf] = ltHead{key: r.ws.Key}
	h.t.enter(leaf)
}

func (h *headTree) absorbs() bool { return true }

func (h *headTree) min() *runInfo { return h.runs[h.t.min()] }

func (h *headTree) fixMin() {
	leaf := h.t.min()
	h.t.heads[leaf].key = h.runs[leaf].ws.Key
	h.t.replay(leaf)
}

func (h *headTree) popMin() {
	leaf := h.t.min()
	h.runs[leaf] = nil
	h.t.kill(leaf)
	h.t.replay(leaf)
}

// headEntry is one headHeap node: the run's current key cached beside the
// run pointer, so the common comparison touches only the 16-byte entry
// (payloads are consulted only to break key ties).
type headEntry struct {
	key Key
	r   *runInfo
}

// headHeap is the counted binary min-heap over the current records of loaded
// runs — the simulator's runHeads (Env.ClassicSelection), every comparison
// charged to the CPU, and the oracle the tree is tested against. The
// comparison algorithm matches Less exactly (key, then payload bytes), so
// the cached-key layout changes no comparison counts.
type headHeap struct {
	rs  []headEntry
	cmp *int64
}

func (h *headHeap) reset(int) { h.rs = h.rs[:0] }

// absorbs is false: the simulator's CPU model is calibrated on the
// comparisons of the rebuild a combine has always cost the heap.
func (h *headHeap) absorbs() bool { return false }

func (h *headHeap) min() *runInfo {
	if len(h.rs) == 0 {
		return nil
	}
	return h.rs[0].r
}

func (h *headHeap) less(i, j int) bool {
	*h.cmp++
	a, b := h.rs[i], h.rs[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return bytes.Compare(a.r.ws.Payload, b.r.ws.Payload) < 0
}

func (h *headHeap) push(r *runInfo) {
	h.rs = append(h.rs, headEntry{key: r.ws.Key, r: r})
	i := len(h.rs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.rs[i], h.rs[p] = h.rs[p], h.rs[i]
		i = p
	}
}

// fixMin restores heap order after the root run advanced to a new record
// (refreshing its cached key first).
func (h *headHeap) fixMin() {
	h.rs[0].key = h.rs[0].r.ws.Key
	i := 0
	n := len(h.rs)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			return
		}
		h.rs[i], h.rs[s] = h.rs[s], h.rs[i]
		i = s
	}
}

func (h *headHeap) popMin() {
	n := len(h.rs) - 1
	h.rs[0] = h.rs[n]
	h.rs = h.rs[:n]
	if n > 0 {
		h.fixMin()
	}
}

type advResult int

const (
	advOK      advResult = iota // workspace refilled with the next record
	advDry                      // no stored records remain (for now)
	advBlocked                  // memory shortage: cannot load the page
)

// advanceRun consumes the workspace record and refills it with the run's
// next stored record, loading its page if necessary. The workspace is
// invalidated first, so a blocked refill never duplicates records.
func (m *mergeEngine) advanceRun(st *mergeStep, r *runInfo) (advResult, error) {
	r.wsValid = false
	if r.needsLoad() {
		ok, err := m.load(st, r, m.readAhead(st))
		if err != nil {
			return 0, err
		}
		if !ok {
			return advBlocked, nil
		}
	}
	if len(r.bufs) > 0 {
		r.lastUsed = m.mruClock
		m.mruClock++
	}
	if r.refill() {
		return advOK, nil
	}
	return advDry, nil
}

// produceOnePage merges tuples from the step's inputs until the output page
// under construction is full, and flushes once the writer holds
// cfg.MergeBlockPages full pages — at 0 and 1, every page. It returns early,
// flushing whatever is pending, with drainEmpty when the drained run empties
// (correctness requires absorbing before emitting more) or needAdapt when a
// buffer cannot be loaded under the current memory.
//
// The selection structure persists across calls: it is rebuilt only when the
// step changed or something invalidated it. Run workspaces survive buffer
// drops (suspension, paging eviction, reclaim), so its order stays correct
// across those events without a rebuild.
func (m *mergeEngine) produceOnePage(st *mergeStep) (stepResult, error) {
	var drainRun *runInfo
	if st.drainOf != nil {
		drainRun = st.drainOf.out
	}
	hh := m.hh
	if !m.hhValid || m.hhStep != st {
		hh.reset(len(st.inputs))
		m.hhStep = st
		m.hhValid = false
		for _, r := range st.inputs {
			if !r.wsValid {
				if r.exhausted() {
					continue
				}
				res, err := m.advanceRun(st, r)
				if err != nil {
					return 0, err
				}
				if res == advBlocked {
					return needAdapt, nil
				}
				if res == advDry {
					continue
				}
			}
			hh.push(r)
		}
		m.hhValid = true
	}
	if drainRun != nil && drainRun.exhausted() {
		return drainEmpty, nil
	}
	r := hh.min()
	if r == nil {
		m.invalidateHeap()
		return stepDone, nil
	}
	// Until the page under construction fills up and joins the block.
	for full := len(m.w.block); len(m.w.block) == full && r != nil; r = hh.min() {
		m.w.add(r.ws)
		if r.spent != nil {
			// That was the last record of a page the run has left, and this
			// step read the page (drop forgets the handle at every step
			// switch): every record of it now sits in one of this writer's
			// output pages, so the page goes home once this one is durable.
			m.w.retire(r.spent)
			r.spent = nil
		}
		res, err := m.advanceRun(st, r)
		if err != nil {
			m.invalidateHeap()
			return 0, err
		}
		switch res {
		case advOK:
			hh.fixMin()
		case advBlocked:
			// The minimum consumed its workspace but could not refill: the
			// structure no longer reflects it. Rebuild after adaptation.
			m.invalidateHeap()
			if err := m.flushOut(st); err != nil {
				return 0, err
			}
			return needAdapt, nil
		case advDry:
			hh.popMin()
			if r == drainRun {
				if err := m.flushOut(st); err != nil {
					return 0, err
				}
				return drainEmpty, nil
			}
		}
	}
	// Inputs exhausted: flush now, so that one page a block is the very
	// sequence of calls the merge made before it knew of blocks.
	if r == nil || len(m.w.block) >= m.cfg.MergeBlockPages {
		if err := m.flushOut(st); err != nil {
			return 0, err
		}
	}
	return pageProduced, nil
}
