package core

// Parallel execution of the real engine's two phases (ISSUE 10). The
// simulator never reaches this file: cfg.Workers > 1 is only ever set by the
// public API, and effectiveWorkers additionally requires the broker to
// support context waits. Everything here therefore runs wall-clock
// goroutines freely while the simulated engine stays single-threaded and
// byte-identical.
//
// Worker model:
//
//   - One crew per phase arbitrates the operation's single Broker across W
//     workers. Each worker sees a private Broker view (workerShare) whose
//     Target is a deterministic share of the live parent target — t/active
//     with the remainder going to the lowest-ranked live workers — so a
//     Pool.Resize or Budget.Shrink propagates to every worker at its next
//     page boundary, not just one of them. When the target cannot sustain
//     all workers (active = t/minNeed), the highest-ranked workers' shares
//     drop to zero and they quiesce deterministically (mergeEngine
//     maybeQuiesce) until budget returns or a sibling finishes.
//   - Run generation: workers pull input pages from a mutex-guarded shared
//     input and run the ordinary quickSplit/replSplit against their own
//     Env view, each appending complete runs through its own store path.
//   - Merge: the split phase records per-page first-key fences, from which
//     the coordinator derives W-1 splitter keys; each worker merges
//     key-range clones of every run into one output segment. Segments
//     concatenate in key order, so parallel output is value-identical to
//     serial output. Runs without fences (MergeExisting) use a merge tree
//     instead: disjoint run groups merge in parallel, then one serial
//     final merge.
import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// effectiveWorkers reports how many goroutines the operation may use: the
// configured worker count when the broker supports context-cancelable waits
// (both real brokers do), else 1. The parallel path depends on ContextBroker
// to run its budget-change forwarder without leaking a goroutine.
func effectiveWorkers(e *Env, cfg SortConfig) int {
	if cfg.Workers < 2 {
		return 1
	}
	if _, ok := e.Mem.(ContextBroker); !ok {
		return 1
	}
	return cfg.Workers
}

// crew coordinates the worker goroutines of one parallel phase over the
// operation's single Broker. All shares derive from the live parent target
// on every call, so budget changes are seen by every worker at its next
// broker interaction.
type crew struct {
	parent  Broker
	minNeed int // pages a worker needs to be active (1 split, MinPages merge)

	mu      sync.Mutex
	cond    *sync.Cond
	granted []int
	live    []bool
	nlive   int
	total   int // sum of granted, tracked for the high-water mark
	maxTot  int

	steps   atomic.Int64 // operation-wide merge-step counter
	cancel  context.CancelFunc
	fwdDone chan struct{}
}

// newCrew starts the crew and its budget-change forwarder. The caller must
// have checked that e.Mem implements ContextBroker (effectiveWorkers).
func newCrew(e *Env, workers, minNeed int) *crew {
	c := &crew{
		parent:  e.Mem,
		minNeed: minNeed,
		granted: make([]int, workers),
		live:    make([]bool, workers),
		nlive:   workers,
		fwdDone: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := range c.live {
		c.live[i] = true
	}
	c.steps.Store(int64(e.stepSeq))
	base := e.Ctx
	if base == nil {
		base = context.Background()
	}
	fctx, cancel := context.WithCancel(base)
	c.cancel = cancel
	cb := e.Mem.(ContextBroker)
	// The forwarder translates parent budget changes (Pool.Resize,
	// Budget.Shrink/Grow, sibling-operator churn) into crew wakeups, so a
	// parked worker re-evaluates its share promptly.
	//masortlint:allow simdeterminism -- real-engine parallel path, unreachable from the simulator (sim never sets cfg.Workers > 1): the forwarder only wakes crew waiters when the budget changes
	go func() {
		defer close(c.fwdDone)
		for {
			if err := cb.WaitChangeCtx(fctx); err != nil {
				return
			}
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}()
	return c
}

// close stops the forwarder and folds the shared step counter back into the
// Env. Call once every worker has finished.
func (c *crew) close(e *Env) {
	c.cancel()
	<-c.fwdDone
	e.stepSeq = int(c.steps.Load())
}

// shareLocked computes worker id's page entitlement from the live parent
// target: the target divides among the lowest-ranked live workers that can
// each get at least minNeed pages (always at least one), remainder to the
// lowest ranks. Pure function of (target, live set), so every worker
// computes the same partition — a shrink quiesces workers deterministically
// instead of racing them.
func (c *crew) shareLocked(id int) int {
	if !c.live[id] {
		return 0
	}
	t := c.parent.Target()
	active := c.nlive
	if c.minNeed > 0 {
		if a := t / c.minNeed; a < active {
			active = a
		}
	}
	if active < 1 {
		active = 1
	}
	rank := 0
	for i := 0; i < id; i++ {
		if c.live[i] {
			rank++
		}
	}
	if rank >= active {
		return 0
	}
	s := t / active
	if rank < t%active {
		s++
	}
	return s
}

// waitLocked blocks on the crew condition until the next wakeup (sibling
// acquire/yield/leave or a forwarded budget change); ctx interrupts it.
func (c *crew) waitLocked(ctx context.Context) error {
	if ctx == nil {
		c.cond.Wait()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	c.cond.Wait()
	stop()
	return ctx.Err()
}

// paused reports whether worker id's share has dropped to zero — the signal
// for the merge engine to quiesce at its next output-page boundary.
func (c *crew) paused(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live[id] && c.shareLocked(id) == 0
}

// waitActive parks worker id until its share is nonzero again (budget
// returned, or a lower-ranked sibling finished and its rank improved).
func (c *crew) waitActive(ctx context.Context, id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.shareLocked(id) == 0 {
		if err := c.waitLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

// pauseAtStart parks a worker that is already over-rank when it begins: a
// shrink can land before a worker produces its first page — before
// mergeEngine.maybeQuiesce ever runs — and without this gate that park
// would be silent. It is reported exactly like a mid-merge pause
// (suspension counted, EvSuspend/EvResume emitted), so suspension stats
// and event-driven budget restores observe every quiesced worker.
func (c *crew) pauseAtStart(we *Env, st *SortStats, id int) error {
	if !c.paused(id) {
		return nil
	}
	st.Suspensions++
	we.emit(EvSuspend, c.minNeed, "")
	if err := c.waitActive(we.Ctx, id); err != nil {
		return err
	}
	we.emit(EvResume, c.minNeed, "")
	return nil
}

// leave retires a finished worker: its remaining grant returns to the
// parent and the survivors' shares grow at their next page boundary. A
// paused worker whose rank improves below `active` resumes — this is what
// guarantees progress when the budget can only sustain a subset of the
// crew: the rank-0 worker always has a full-or-shared target ≥ the broker
// floor, finishes, and hands its slot down.
func (c *crew) leave(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.live[id] {
		return
	}
	c.live[id] = false
	c.nlive--
	if g := c.granted[id]; g > 0 {
		c.granted[id] = 0
		c.total -= g
		c.parent.Yield(g)
	}
	c.cond.Broadcast()
}

// maxGranted reports the high-water mark of pages held by the whole crew.
func (c *crew) maxGranted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxTot
}

// workerEnv derives worker id's execution environment: shared input, store,
// meter and context; a private broker view; serialized event delivery with
// per-worker phase events suppressed (the coordinator owns the operation's
// phase) and the operation-wide step counter shared so (Worker, Step) pairs
// stay unique.
func (c *crew) workerEnv(e *Env, id int, mux *eventMux) *Env {
	we := &Env{
		In:     e.In,
		Store:  e.Store,
		Mem:    &workerShare{c: c, id: id},
		Meter:  e.Meter,
		Ctx:    e.Ctx,
		Now:    e.Now,
		Trace:  e.Trace,
		Worker: id + 1,

		ClassicSelection: e.ClassicSelection,

		stepFn: func() int { return int(c.steps.Add(1)) },
	}
	if e.OnEvent != nil {
		we.OnEvent = func(ev Event) {
			if ev.Kind == EvPhase {
				return
			}
			mux.deliver(ev)
		}
	}
	return we
}

// workerShare is worker id's private view of the crew's Broker: Target is
// the worker's deterministic share, Acquire clamps to it, and waits park on
// the crew condition (woken by siblings and forwarded budget changes).
type workerShare struct {
	c  *crew
	id int
}

func (w *workerShare) Granted() int {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	return w.c.granted[w.id]
}

func (w *workerShare) Target() int {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	return w.c.shareLocked(w.id)
}

func (w *workerShare) Acquire(n int) int {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	room := c.shareLocked(w.id) - c.granted[w.id]
	if n > room {
		n = room
	}
	if n <= 0 {
		return 0
	}
	got := c.parent.Acquire(n)
	if got > 0 {
		c.granted[w.id] += got
		c.total += got
		if c.total > c.maxTot {
			c.maxTot = c.total
		}
		c.cond.Broadcast()
	}
	return got
}

func (w *workerShare) Yield(n int) {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > c.granted[w.id] {
		n = c.granted[w.id]
	}
	if n <= 0 {
		return
	}
	c.granted[w.id] -= n
	c.total -= n
	c.parent.Yield(n)
	c.cond.Broadcast()
}

func (w *workerShare) Pressure() int {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	if p := w.c.granted[w.id] - w.c.shareLocked(w.id); p > 0 {
		return p
	}
	return 0
}

func (w *workerShare) WaitTarget(n int) { _ = w.WaitTargetCtx(nil, n) }
func (w *workerShare) WaitChange()      { _ = w.WaitChangeCtx(nil) }

func (w *workerShare) WaitTargetCtx(ctx context.Context, n int) error {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.shareLocked(w.id) < n {
		if err := c.waitLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (w *workerShare) WaitChangeCtx(ctx context.Context) error {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waitLocked(ctx)
}

// eventMux serializes worker adaptation events into the operation's single
// OnEvent callback, preserving the documented sequential-delivery contract.
type eventMux struct {
	mu sync.Mutex
	fn func(Event)
}

func (x *eventMux) deliver(ev Event) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.fn(ev)
}

// lockedInput shares one Input between split workers, page at a time. The
// first error or end-of-input latches, so sibling workers wind down with
// whatever they already hold instead of racing a broken source.
type lockedInput struct {
	mu   sync.Mutex
	in   Input
	done bool
}

func (l *lockedInput) NextPage() (Page, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return nil, false, nil
	}
	pg, ok, err := l.in.NextPage()
	if err != nil || !ok {
		l.done = true
	}
	return pg, ok, err
}

// stop makes the input read as exhausted; a failing worker calls it so its
// siblings finish their current runs promptly and the driver can clean up.
func (l *lockedInput) stop() {
	l.mu.Lock()
	l.done = true
	l.mu.Unlock()
}

// addSplitStats folds one split worker's counters into the operation stats.
func addSplitStats(st, w *SortStats) {
	st.TuplesIn += w.TuplesIn
	st.PagesIn += w.PagesIn
	st.Runs += w.Runs
	st.RunPagesWritten += w.RunPagesWritten
}

// addMergeStats folds one merge worker's counters into the operation stats.
func addMergeStats(st, w *SortStats) {
	st.MergeSteps += w.MergeSteps
	st.MergePagesRead += w.MergePagesRead
	st.MergePagesWritten += w.MergePagesWritten
	st.ExtraMergeReads += w.ExtraMergeReads
	st.Splits += w.Splits
	st.Combines += w.Combines
	st.Suspensions += w.Suspensions
}

// parallelSplit is the parallel run-generation phase: cfg.Workers goroutines
// pull pages from the shared input and run the configured split method
// against their own Env view, each producing complete runs through its own
// store append path. Run order is fixed by worker id, and per-partition
// sorting preserves the adaptation behavior: every worker honors shrink and
// grow at its page boundaries through its crew share.
func parallelSplit(e *Env, cfg SortConfig, st *SortStats) ([]*runInfo, error) {
	e.setPhase("split")
	w := cfg.Workers
	// Floor each worker's share at MinPages — and at BlockPages for
	// replacement selection, which needs the full block as output buffer.
	// Both split methods degrade gracefully to 1 page, but run length
	// scales with a worker's share, so admitting workers on slivers of a
	// tiny budget multiplies the run count (and per-run store resources,
	// e.g. FileStore's one fd per live run). Below the floor the crew
	// shrinks toward serial run generation instead.
	minNeed := cfg.MinPages
	if cfg.Method == Repl && cfg.BlockPages > minNeed {
		minNeed = cfg.BlockPages
	}
	c := newCrew(e, w, minNeed)
	defer c.close(e)
	in := &lockedInput{in: e.In}
	mux := &eventMux{fn: e.OnEvent}
	type wres struct {
		runs   []*runInfo
		err    error
		st     SortStats
		panics int
	}
	results := make([]wres, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		//masortlint:allow simdeterminism -- real-engine parallel split, unreachable from the simulator (sim never sets cfg.Workers > 1); workers produce independent runs collected in worker-id order
		go func(id int) {
			defer wg.Done()
			we := c.workerEnv(e, id, mux)
			we.In = in
			r := &results[id]
			var wst SortStats
			if cfg.Method == Quick {
				r.runs, r.err = quickSplit(we, cfg, &wst)
			} else {
				r.runs, r.err = replSplit(we, cfg, &wst)
			}
			if r.err != nil {
				in.stop()
			}
			r.st = wst
			r.panics = we.eventPanics
			c.leave(id)
		}(i)
	}
	wg.Wait()
	var runs []*runInfo
	var firstErr error
	for i := range results {
		r := &results[i]
		runs = append(runs, r.runs...)
		if firstErr == nil && r.err != nil {
			firstErr = r.err
		}
		addSplitStats(st, &r.st)
		e.eventPanics += r.panics
	}
	if mt := c.maxGranted(); mt > st.MaxGranted {
		st.MaxGranted = mt
	}
	return runs, firstErr
}

// cloneRange builds a shared key-bounded view of r for one merge partition:
// the records with lo <= key < hi (each bound optional). The fence index
// places the start page without I/O — every page before it holds only keys
// below lo. Returns nil when the fences prove the range is empty.
func cloneRange(r *runInfo, lo Key, hasLo bool, hi Key, hasHi bool) *runInfo {
	start := 0
	if hasLo {
		// First fence >= lo; the page before it may still reach into the
		// range (its last keys run up to that fence), so start there.
		i := sort.Search(len(r.fences), func(i int) bool { return r.fences[i] >= lo })
		if i > 0 {
			start = i - 1
		}
	}
	if start >= r.pages {
		return nil
	}
	if hasHi && r.fences[start] >= hi {
		// Everything from the start page on is >= hi, and everything before
		// it is < lo: the partition gets nothing from this run.
		return nil
	}
	return &runInfo{
		id:      r.id,
		pages:   r.pages,
		page:    start,
		fences:  r.fences,
		shared:  true,
		bounded: hasHi,
		hi:      hi,
	}
}

// seekClone advances the clone past records below its lower bound, reading
// at most one page: the start page was fence-chosen so the next page's
// first key is already >= lo. The transient buffer is accounted with a
// best-effort one-page grant.
func seekClone(we *Env, st *SortStats, c *runInfo, lo Key, hasLo bool) error {
	if !hasLo || c.page >= c.pages || c.fences[c.page] >= lo {
		return nil
	}
	if got := we.Mem.Acquire(1); got > 0 {
		defer we.Mem.Yield(got)
	}
	pg, err := we.Store.ReadAsync(c.id, c.page).Wait()
	if err != nil {
		return err
	}
	st.MergePagesRead++
	i := sort.Search(len(pg), func(i int) bool { return pg[i].Key >= lo })
	if i < len(pg) {
		c.pos = i
	} else {
		c.page++
		c.pos = 0
	}
	return nil
}

// materialize copies a single bounded clone into a fresh run with an
// ordinary (trivially 1-way) merge step, so the partition's output is a
// real run the coordinator owns — a clone cannot be returned directly.
func (m *mergeEngine) materialize(clone *runInfo) (*runInfo, error) {
	out, err := m.newOutRun()
	if err != nil {
		_ = m.freeRun(clone)
		return nil, err
	}
	stp := &mergeStep{inputs: []*runInfo{clone}, out: out}
	out.producer = stp
	m.startStep(stp)
	if err := m.executeStep(stp); err != nil {
		m.releaseStep(stp)
		return nil, err
	}
	return out, nil
}

// workerMerge merges worker id's key partition of every run into one output
// segment, with the full adaptation machinery (suspension, paging, dynamic
// splitting, pause/resume, cancellation) running against the worker's crew
// share. Returns nil for an empty partition.
func workerMerge(we *Env, cfg SortConfig, st *SortStats, runs []*runInfo, cuts []Key, id int) (*runInfo, error) {
	hasLo, hasHi := id > 0, id < len(cuts)
	var lo, hi Key
	if hasLo {
		lo = cuts[id-1]
	}
	if hasHi {
		hi = cuts[id]
	}
	if hasLo && hasHi && lo >= hi {
		return nil, nil // duplicate splitter keys: the range is empty
	}
	var clones []*runInfo
	for _, r := range runs {
		c := cloneRange(r, lo, hasLo, hi, hasHi)
		if c == nil {
			continue
		}
		if err := seekClone(we, st, c, lo, hasLo); err != nil {
			return nil, err
		}
		if c.page >= c.pages {
			continue
		}
		if c.bounded && c.pos == 0 && c.fences[c.page] >= c.hi {
			continue
		}
		clones = append(clones, c)
	}
	if len(clones) == 0 {
		return nil, nil
	}
	m := &mergeEngine{e: we, cfg: cfg, st: st}
	out, err := m.mergeRuns(clones)
	if err != nil {
		return nil, err
	}
	if out.shared {
		// A single-clone partition under a static plan passes the clone
		// through unchanged; copy its range into a run of our own.
		return m.materialize(out)
	}
	return out, nil
}

// parallelMerge partitions the merge by key range across cfg.Workers
// goroutines: the split phase's page fences yield W-1 splitter keys at
// equal cumulative-page intervals, each worker merges bounded clones of
// every run, and the resulting segments concatenate in key order — the
// output sequence is value-identical to a serial merge. Returns ok=false
// (caller falls back to a serial merge) when any run lacks fences or the
// input is too small to split W ways.
func parallelMerge(e *Env, cfg SortConfig, st *SortStats, runs []*runInfo) ([]*runInfo, bool, error) {
	w := cfg.Workers
	var fences []Key
	total := 0
	for _, r := range runs {
		if len(r.fences) != r.pages {
			return nil, false, nil
		}
		total += r.pages
		fences = append(fences, r.fences...)
	}
	if w > total/2 {
		w = total / 2
	}
	if w < 2 {
		return nil, false, nil
	}
	slices.Sort(fences)
	cuts := make([]Key, w-1)
	for i := 1; i < w; i++ {
		cuts[i-1] = fences[len(fences)*i/w]
	}

	c := newCrew(e, w, cfg.MinPages)
	defer c.close(e)
	mux := &eventMux{fn: e.OnEvent}
	type wres struct {
		out    *runInfo
		err    error
		st     SortStats
		panics int
	}
	results := make([]wres, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		//masortlint:allow simdeterminism -- real-engine parallel merge, unreachable from the simulator (sim never sets cfg.Workers > 1); key-partitioned sub-merges recombine in worker-id order, independent of scheduling
		go func(id int) {
			defer wg.Done()
			we := c.workerEnv(e, id, mux)
			we.ShouldPause = func() bool { return c.paused(id) }
			we.WaitResume = func() error { return c.waitActive(we.Ctx, id) }
			r := &results[id]
			var wst SortStats
			if err := c.pauseAtStart(we, &wst, id); err != nil {
				r.err = err
			} else {
				r.out, r.err = workerMerge(we, cfg, &wst, runs, cuts, id)
			}
			r.st = wst
			r.panics = we.eventPanics
			c.leave(id)
		}(i)
	}
	wg.Wait()
	var firstErr error
	var segs []*runInfo
	for i := range results {
		r := &results[i]
		if firstErr == nil && r.err != nil {
			firstErr = r.err
		}
		addMergeStats(st, &r.st)
		e.eventPanics += r.panics
		if r.err == nil && r.out != nil {
			segs = append(segs, r.out)
		}
	}
	if mt := c.maxGranted(); mt > st.MaxGranted {
		st.MaxGranted = mt
	}
	// The workers only borrowed the input runs through shared clones; the
	// coordinator owns and frees them — exactly once, after every worker is
	// done (success or abort).
	freeRuns(e, runs)
	if firstErr != nil {
		freeRuns(e, segs)
		return nil, true, firstErr
	}
	return segs, true, nil
}

// parallelTreeMerge is the fan-in-bound fallback for runs without fences
// (MergeExisting): the runs divide round-robin into disjoint groups, each
// group merges in parallel into one intermediate run, and a serial final
// merge combines the intermediates. Unlike parallelMerge the workers own
// their runs outright, so the ordinary consume-and-free path applies.
func parallelTreeMerge(e *Env, cfg SortConfig, st *SortStats, runs []*runInfo) (*runInfo, error) {
	w := min(cfg.Workers, len(runs)/2)
	groups := make([][]*runInfo, w)
	for i, r := range runs {
		groups[i%w] = append(groups[i%w], r)
	}
	c := newCrew(e, w, cfg.MinPages)
	mux := &eventMux{fn: e.OnEvent}
	type wres struct {
		out    *runInfo
		err    error
		st     SortStats
		panics int
	}
	results := make([]wres, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		//masortlint:allow simdeterminism -- real-engine parallel merge tree, unreachable from the simulator (sim never sets cfg.Workers > 1); groups are disjoint and the final merge is serial
		go func(id int) {
			defer wg.Done()
			we := c.workerEnv(e, id, mux)
			we.ShouldPause = func() bool { return c.paused(id) }
			we.WaitResume = func() error { return c.waitActive(we.Ctx, id) }
			r := &results[id]
			var wst SortStats
			if err := c.pauseAtStart(we, &wst, id); err != nil {
				r.err = err
				r.st = wst
				r.panics = we.eventPanics
				c.leave(id)
				return
			}
			m := &mergeEngine{e: we, cfg: cfg, st: &wst}
			r.out, r.err = m.mergeRuns(groups[id])
			r.st = wst
			r.panics = we.eventPanics
			c.leave(id)
		}(i)
	}
	wg.Wait()
	c.close(e)
	var firstErr error
	var inter []*runInfo
	for i := range results {
		r := &results[i]
		if firstErr == nil && r.err != nil {
			firstErr = r.err
		}
		addMergeStats(st, &r.st)
		e.eventPanics += r.panics
		if r.err == nil && r.out != nil {
			inter = append(inter, r.out)
		}
	}
	if mt := c.maxGranted(); mt > st.MaxGranted {
		st.MaxGranted = mt
	}
	if firstErr != nil {
		freeRuns(e, inter)
		e.yieldAll()
		return nil, firstErr
	}
	m := &mergeEngine{e: e, cfg: cfg, st: st}
	return m.mergeRuns(inter)
}
