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
	out    *runInfo // nil: the step's records go to the caller (Stream)
	parent *mergeStep

	// id numbers the step within the operation (assigned by startStep) for
	// event correlation; steps interleave under dynamic splitting.
	id int

	// drainOf marks combine-in-progress: this step must fully consume
	// drainOf.out before absorbing drainOf's inputs.
	drainOf *mergeStep
}

// need returns the step's buffer requirement: one page per input run, plus
// an output page when the step writes a run. A step whose records go to its
// caller one at a time (Stream) has none.
func (s *mergeStep) need() int { return len(s.inputs) + btoi(s.out != nil) }

// btoi is 1 for true.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stepResult tells the engine why production stopped.
type stepResult int

const (
	pageProduced stepResult = iota // output produced (emit: a record); keep going
	stepDone                       // all inputs exhausted; step complete
	drainEmpty                     // the drained run is empty: absorb now
	needAdapt                      // memory shortage mid-page: adapt first
)

// mergeEngine executes the merge phase of one sort against an Env.
type mergeEngine struct {
	e   *Env
	cfg SortConfig
	st  *SortStats

	// active is the step producing output — the static plan's current
	// step, dynamic splitting's active step, the join's joint step — and the
	// one whose buffers the reclaimer may take.
	active *mergeStep

	// hold stops a dynamic plan when its root becomes the active step and
	// fits, and a static one before its last step, leaving that step to the
	// consumer (holdLast); held reports that the dynamic plan stopped.
	hold, held bool

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
		w: runWriter{store: e.Store, recs: cfg.PageRecords, released: &st.MergePagesReleased, retries: &st.StoreRetries}}
	m.hh = e.newRunHeads(&m.cmp)
	return m
}

// mergeRuns merges runs into a single result run under the configured
// merging strategy and adaptation strategy.
func (m *mergeEngine) mergeRuns(runs []*runInfo) (*runInfo, error) {
	out, _, err := m.plan(runs)
	return out, err
}

// holdLast runs the merge plan of runs up to its last step and returns that
// step's inputs, stored runs every one, instead of executing it: the step
// belongs to the consumer of the output (LastStep). A dynamic plan's last
// step is its root; while the root is held, no sub-step combines into it, so
// the plan reaches it with every preliminary output complete. Fewer than two
// runs are a last step already.
func (m *mergeEngine) holdLast(runs []*runInfo) ([]*runInfo, error) {
	if len(runs) < 2 {
		return runs, nil
	}
	m.hold = true
	_, last, err := m.plan(runs)
	return last, err
}

// plan executes the merge plan: to the one result run, or under hold to the
// inputs of its last step.
func (m *mergeEngine) plan(runs []*runInfo) (*runInfo, []*runInfo, error) {
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
func (m *mergeEngine) runStatic(runs []*runInfo) (*runInfo, []*runInfo, error) {
	pool := append([]*runInfo(nil), runs...)
	// fail abandons the plan between steps: nothing is in flight, so the
	// pooled runs are freed and the grant handed back.
	fail := func(err error) (*runInfo, []*runInfo, error) {
		freeRuns(m.e, pool)
		m.e.yieldAll()
		return nil, nil, err
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
		k := firstStepFanIn(len(pool), max(m.e.Mem.Target(), minPages), m.cfg.Merge, m.hold)
		if m.hold && k == len(pool) {
			return nil, pool, nil
		}
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
			return nil, nil, err
		}
		pool = append(rest, out)
	}
	return pool[0], nil, nil
}

// executeStep runs one static merge step to completion.
func (m *mergeEngine) executeStep(st *mergeStep) error {
	m.active = st
	defer func() { m.active = nil }()
	for {
		done, err := m.turn()
		if err != nil || done {
			return err
		}
	}
}

// turn is one round of the merge loop of a step that writes a run: at the
// output-page boundary (adaptPoint) cancellation is observed and the active
// step adapts to the budget; then it produces one output page and the engine
// acts on why production stopped (stopped). A step whose records go to its
// caller runs the same rounds a record at a time (Stream.Next). turn reports
// whether the plan's root step completed.
func (m *mergeEngine) turn() (bool, error) {
	if err := m.adaptPoint(); err != nil || m.held {
		return false, err
	}
	st := m.active
	if st.out == nil {
		return false, nil // a combine made the caller's step active
	}
	res, err := m.produceOnePage(st)
	if err != nil {
		return false, err
	}
	return m.stopped(st, res)
}

// adaptPoint is the adaptation point every output page of records passes:
// cancellation is observed, then the active step adapts to the budget.
func (m *mergeEngine) adaptPoint() error {
	if err := m.e.ctxErr(); err != nil {
		return err
	}
	return m.adapt()
}

// stopped acts on why st stopped producing, and reports whether the plan's
// root step completed.
func (m *mergeEngine) stopped(st *mergeStep, res stepResult) (bool, error) {
	switch res {
	case stepDone:
		if err := m.finishStep(st); err != nil {
			return false, err
		}
		if st.parent == nil {
			return true, nil
		}
		m.active = st.parent
	case drainEmpty:
		return false, m.absorb(st)
	case needAdapt:
		if err := m.adapt(); err != nil || m.held {
			return false, err
		}
		return false, m.ensureProgress(m.active)
	}
	return false, nil
}

// adapt runs the adaptation strategy on the active step.
func (m *mergeEngine) adapt() error {
	if m.cfg.Adapt == DynSplit {
		return m.adaptDynamic()
	}
	return m.adaptStatic(m.active)
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

// suspend is the suspension strategy's sequence: flush the partial output
// page, drop every input buffer of st, hand all pages back, and wait —
// interrupted only by cancellation — until the target reaches `until`
// pages, the step's whole requirement. The run cursors live in workspace
// records, so merging resumes where it stopped.
func (m *mergeEngine) suspend(st *mergeStep, until int) error {
	if err := m.drainOut(st); err != nil {
		return err
	}
	for _, r := range st.inputs {
		r.drop()
	}
	m.e.Mem.Yield(m.e.Mem.Granted())
	m.st.Suspensions++
	m.e.emit(EvSuspend, until, "")
	if err := m.e.Mem.WaitTarget(m.e.ctx(), until); err != nil {
		return err
	}
	m.e.Mem.Acquire(until - m.e.Mem.Granted())
	m.e.emit(EvResume, until, "")
	return nil
}

// pagingBudget is how many pages the paging strategy may keep resident
// under the given target.
func (m *mergeEngine) pagingBudget(st *mergeStep, target int) int {
	return min(max(target, minPages), st.need())
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
		pg, err := m.waitPage(p.tok)
		if err != nil {
			return err
		}
		p.r.enter(pg)
	}
	return nil
}

// waitPage completes a merge read, keeping the token with the page for its
// release.
func (m *mergeEngine) waitPage(tok PageToken) (inPage, error) {
	recs, err := tok.Wait()
	countRetries(tok, &m.st.StoreRetries)
	return inPage{recs, tok}, err
}

// ---- dynamic splitting ----

// runDynamic implements the paper's dynamic splitting strategy. The merge
// phase starts with a single step combining all runs; adaptation splits and
// combines steps as memory fluctuates.
func (m *mergeEngine) runDynamic(runs []*runInfo) (*runInfo, []*runInfo, error) {
	root := &mergeStep{inputs: append([]*runInfo(nil), runs...)}
	if !m.hold {
		out, err := newRun(m.e.Store)
		if err != nil {
			freeRuns(m.e, runs)
			m.e.yieldAll()
			return nil, nil, err
		}
		root.out, out.producer = out, root
		m.startStep(root)
	}
	m.active = root
	defer func() { m.active = nil }()
	for {
		// The whole step chain (splits in progress included) is released on
		// abort.
		done, err := m.turn()
		if err != nil {
			m.releaseStep(m.active)
			return nil, nil, err
		}
		if m.held {
			return nil, root.inputs, nil
		}
		if done {
			return root.out, nil, nil
		}
	}
}

// adaptDynamic enforces the dynamic-splitting invariant (active step fits in
// the current target), splits on shrink, and initiates combining on growth.
func (m *mergeEngine) adaptDynamic() error {
	st := m.active
	m.rebalance(st)
	target := max(m.e.Mem.Target(), minPages)
	if m.hold && st.out == nil && st.need() <= target {
		// The held root fits the very target the step would run under: it
		// is the consumer's (holdLast). Only the root lacks an output run.
		m.held = true
		return nil
	}
	if st.drainOf != nil {
		if st.need() > target {
			// Shrunk mid-combine: abort the drain and fall back to the
			// preliminary step (its state is untouched — it simply resumes).
			// The step is unlinked only once the drain is out: a failed
			// write aborts the chain, and releaseStep reaches the
			// preliminary step's inputs through st.drainOf alone.
			prelim := st.drainOf
			if err := m.drainOut(st); err != nil {
				return err
			}
			st.drainOf = nil
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
	// fits (paper Figure 3 — drain the partial output first). A held root
	// takes no combine: its consumer starts it from complete runs.
	if !m.cfg.NoCombine && st.parent != nil && !(m.hold && st.parent.parent == nil) {
		combinedNeed := st.parent.need() - 1 + len(st.inputs)
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
		k := firstStepFanIn(n, target, m.cfg.Merge, st.out == nil)
		if k >= n {
			break // cannot shrink further (n == 2 and target == minPages)
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

// heldPages counts resident buffers: the loaded inputs, plus the output
// page of a step that writes a run.
func (m *mergeEngine) heldPages(st *mergeStep) int {
	h := btoi(st.out != nil)
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
	return m.e.Mem.WaitChange(m.e.ctx())
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
		k := len(victim.bufs) - 1
		victim.bufs[k] = inPage{} // the array stays the run's: let the page go
		victim.bufs = victim.bufs[:k]
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
			pg, err := m.waitPage(pr.tok)
			if err != nil {
				return false, err
			}
			if pr.idx == r.page+len(r.bufs) {
				r.enter(pg)
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
// because a combine reads st.out and a split writes somebody else's. A step
// whose records go to its caller leaves the block empty: nothing to flush.
func (m *mergeEngine) flushOut(st *mergeStep) error {
	n := m.w.n
	pages, err := m.w.flush(st.out)
	if err != nil || pages == 0 {
		return err
	}
	m.st.MergePagesWritten += pages
	m.chargeMerge(n)
	return nil
}

// chargeMerge charges n records copied out of the merge and the comparisons
// made since the last charge.
func (m *mergeEngine) chargeMerge(n int) {
	m.e.charge(OpCopyTuple, int64(n))
	m.e.charge(OpCompare, m.cmp)
	m.cmp = 0
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
	if st.out != nil {
		st.out.producer = nil
	}
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

// retire gives back an input page of st every record of which is now in an
// output page. The page goes home whole once the Append of that output page
// has returned (PageReleaser): the store has copied the payloads by then.
// Otherwise — a step whose records go to its caller, or a store whose tokens
// offer no Release — the record array alone goes back, at once
// (RecordsReleaser): the records were copied out, into the writer's page or
// to the caller, and the payloads they alias are never reused.
func (m *mergeEngine) retire(st *mergeStep, tok PageToken) {
	if st.out != nil {
		if rel, ok := tok.(PageReleaser); ok {
			m.w.retire(rel)
			return
		}
	}
	if rr, ok := tok.(RecordsReleaser); ok {
		rr.ReleaseRecords()
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

// advanceMin moves hh's minimum run past its current record and restores the
// order: the run is removed when it ran dry, replayed otherwise. When that
// record was the last of a page, the page's record array goes back first
// (RecordsReleaser), never the whole page: a caller may keep the record's
// payload (the join's pending group). blocked reports a memory shortage that
// kept the run's next page from loading (hh is untouched; the caller goes
// back to adapt, which rebuilds it). emit, the per-record hot path that may
// give a page back whole (retire), advances inline.
func (m *mergeEngine) advanceMin(st *mergeStep, hh runHeads) (blocked bool, err error) {
	r := hh.min()
	if rr, ok := r.spent.(RecordsReleaser); ok {
		rr.ReleaseRecords()
	}
	r.spent = nil
	res, err := m.advanceRun(st, r)
	switch {
	case err != nil || res == advBlocked:
		return res == advBlocked, err
	case res == advDry:
		hh.popMin()
	default:
		hh.fixMin()
	}
	return false, nil
}

// rebuild empties hh and enters every run of runs that has a record to
// offer, refilling the workspace of each run that has none. It stops with
// needAdapt when a run's page cannot load under the current memory.
func (m *mergeEngine) rebuild(st *mergeStep, runs []*runInfo, hh runHeads) (stepResult, error) {
	hh.reset(len(runs))
	for _, r := range runs {
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
	return pageProduced, nil
}

// produceOnePage merges tuples from the step's inputs until the output page
// under construction is full, and flushes once the writer holds
// cfg.MergeBlockPages full pages — at 0 and 1, every page. It returns early,
// flushing whatever is pending, with drainEmpty when the drained run empties
// (correctness requires absorbing before emitting more) or needAdapt when a
// buffer cannot be loaded under the current memory.
func (m *mergeEngine) produceOnePage(st *mergeStep) (stepResult, error) {
	// Until the page under construction fills up and joins the block.
	for full, first := len(m.w.block), true; len(m.w.block) == full; first = false {
		_, ok, res, err := m.emit(st)
		if err != nil || !ok && first {
			return res, err
		}
		if !ok {
			break // inputs exhausted mid-page: flushed below, stepDone next
		}
		if res != pageProduced {
			return res, m.flushOut(st)
		}
	}
	// Inputs exhausted: flush now, so that one page a block is the very
	// sequence of calls the merge made before it knew of blocks.
	if m.hh.min() == nil || len(m.w.block) >= m.cfg.MergeBlockPages {
		if err := m.flushOut(st); err != nil {
			return 0, err
		}
	}
	return pageProduced, nil
}

// emit takes the smallest record of st's inputs out of the merge — the one
// place a step's minimum is taken: into the writer's output page when st
// writes a run (produceOnePage), and returned otherwise, for the caller
// (Stream.Next). With a record (ok), res is what stops the step after it:
// pageProduced for nothing, needAdapt when the record's run could not
// refill under the current memory, drainEmpty when the drained run ran dry.
// Without one, res is why: stepDone, drainEmpty or needAdapt.
//
// The selection structure persists across calls: it is rebuilt only when the
// step changed or something invalidated it. Run workspaces survive buffer
// drops (suspension, paging eviction, reclaim), so its order stays correct
// across those events without a rebuild.
func (m *mergeEngine) emit(st *mergeStep) (Record, bool, stepResult, error) {
	var drainRun *runInfo
	if st.drainOf != nil {
		drainRun = st.drainOf.out
	}
	hh := m.hh
	if !m.hhValid || m.hhStep != st {
		m.hhStep = st
		m.hhValid = false
		if res, err := m.rebuild(st, st.inputs, hh); err != nil || res == needAdapt {
			return Record{}, false, res, err
		}
		m.hhValid = true
	}
	if drainRun != nil && drainRun.exhausted() {
		return Record{}, false, drainEmpty, nil
	}
	r := hh.min()
	if r == nil {
		m.invalidateHeap()
		return Record{}, false, stepDone, nil
	}
	rec := r.ws
	if st.out != nil {
		m.w.add(rec)
	}
	if r.spent != nil {
		// That was the last record of a page the run has left, and this
		// step read the page (drop forgets the token at every step switch):
		// every record of it is now out of the merge.
		m.retire(st, r.spent)
		r.spent = nil
	}
	res, err := m.advanceRun(st, r)
	if err != nil {
		m.invalidateHeap()
		return Record{}, false, 0, err
	}
	switch res {
	case advOK:
		hh.fixMin()
	case advBlocked:
		// The minimum consumed its workspace but could not refill: the
		// structure no longer reflects it. Rebuild after adaptation.
		m.invalidateHeap()
		return rec, true, needAdapt, nil
	case advDry:
		hh.popMin()
		if r == drainRun {
			return rec, true, drainEmpty, nil
		}
	}
	return rec, true, pageProduced, nil
}
