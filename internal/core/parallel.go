package core

// The phase driver. Both phases of a sort — and the merge exposed on its own
// — run through runCrew, which takes the worker count as data. At W = 1 the
// phase body runs inline on the caller's goroutine against the caller's own
// Env: that is every simulated sort and every sort without WithWorkers, so
// the simulator stays single-threaded and byte-identical by construction.
// At W > 1 the same body runs on W goroutines, each against a derived Env.
// internal/core spawns goroutines in exactly one place: runCrew's workers.
//
// Worker model (W > 1):
//
//   - The crew is not an arbiter. The operation's own Broker divides its
//     entitlement among the W workers (crewBroker.Divide): each worker's
//     Broker is a sub-handle of the operation's, whose Target is a
//     deterministic share of the live parent target — t/active with the
//     remainder going to the lowest-ranked live workers (memarb.CrewShare)
//     — computed under the operation's arbiter's lock, so a Pool.Resize or
//     Budget.Shrink propagates to every worker at its next page boundary,
//     not just one of them. When the target cannot sustain all workers
//     (active = t/minNeed), the highest-ranked workers' shares drop to
//     zero. Every arbiter floors an operator's target at MinPages or more,
//     so a zero target means exactly "parked", and the merge engine answers
//     it with the ordinary suspension sequence (mergeEngine.suspend),
//     sleeping on the same arbiter until budget returns or a sibling
//     finishes.
//   - Run generation: workers pull input pages from a mutex-guarded shared
//     input and run the ordinary quickSplit/replSplit against their own
//     Env view, each appending complete runs through its own store path.
//   - Merge: the split phase records per-page first-key fences, from which
//     fenceCuts derives up to W-1 splitter keys; each worker merges
//     key-range clones of every run down to its partition's last step and
//     hands that step back (holdLast). The steps run in key order under the
//     consumer (LastStep), so the output is value-identical at every W.
//     With no cuts (W = 1, an input too small to cut, or runs without
//     fences: MergeExisting's) the one partition merges the runs themselves
//     on one worker.
import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/memadapt/masort/internal/memarb"
)

// crewBroker is optionally implemented by brokers that can divide their
// entitlement among the workers of a crew. The real engine's one broker
// (memarb.Handle) does; the simulator's (bufmgr.OpHandle) does not, which
// keeps every simulated sort on one worker by construction.
type crewBroker interface {
	Divide(workers, minNeed int) []*memarb.Handle
}

// effectiveWorkers reports how many goroutines the operation may use: the
// configured worker count when the broker can divide itself among a crew,
// else 1.
func effectiveWorkers(e *Env, cfg SortConfig) int {
	if _, ok := e.Mem.(crewBroker); !ok || cfg.Workers < 2 {
		return 1
	}
	return cfg.Workers
}

// phaseFn is one worker's part of a phase: it runs against its own Env view
// and stats and returns the runs it produced — also on error, so the driver
// can free them.
type phaseFn func(we *Env, id int, st *SortStats) ([]*runInfo, error)

// runCrew runs one phase on w workers and returns their output runs in
// worker order. On error every output is freed and the whole grant handed
// back, so an aborted phase leaves nothing behind of its own; the phase's
// inputs are its caller's to free.
//
// A crew of one is not a crew: fn runs inline with the parent Env and stats
// — no goroutine, no sub-handles, no share arithmetic.
func runCrew(e *Env, st *SortStats, w, minNeed int, fn phaseFn) ([]*runInfo, error) {
	var outs []*runInfo
	var err error
	if w == 1 {
		outs, err = fn(e, 0, st)
	} else {
		// The caller checked that e.Mem is a crewBroker (effectiveWorkers).
		shares := e.Mem.(crewBroker).Divide(w, minNeed)
		c := &crew{}
		c.steps.Store(int64(e.stepSeq))
		wst := make([]SortStats, w)
		wouts := make([][]*runInfo, w)
		errs := make([]error, w)
		var wg sync.WaitGroup
		for id := range w {
			wg.Add(1)
			//masortlint:allow simdeterminism -- W > 1 is real-engine only (the simulator never sets cfg.Workers, and W = 1 takes the inline branch above); worker outputs are collected in worker-id order, independent of scheduling
			go func() {
				defer wg.Done()
				defer shares[id].Leave()
				wouts[id], errs[id] = fn(c.workerEnv(e, shares[id], id), id, &wst[id])
			}()
		}
		wg.Wait()
		e.stepSeq = int(c.steps.Load())
		for id := range w {
			st.add(&wst[id])
			if err == nil {
				err = errs[id]
			}
		}
		st.MaxGranted = max(st.MaxGranted, shares[0].Stats().MaxGranted)
		outs = slices.Concat(wouts...)
	}
	if err != nil {
		freeRuns(e, outs)
		e.yieldAll()
		return nil, err
	}
	return outs, nil
}

// add folds one worker's counters into the operation's stats.
func (s *SortStats) add(w *SortStats) {
	s.TuplesIn += w.TuplesIn
	s.PagesIn += w.PagesIn
	s.Runs += w.Runs
	s.RunPagesWritten += w.RunPagesWritten
	s.MergeSteps += w.MergeSteps
	s.MergePagesRead += w.MergePagesRead
	s.MergePagesWritten += w.MergePagesWritten
	s.ExtraMergeReads += w.ExtraMergeReads
	s.MergePagesReleased += w.MergePagesReleased
	s.Splits += w.Splits
	s.Combines += w.Combines
	s.Suspensions += w.Suspensions
}

// crew is what the workers of one phase share besides the operation's
// Broker (whose sub-handles arbitrate their memory): one event stream and
// one merge-step numbering.
type crew struct {
	evMu  sync.Mutex   // serializes worker events into the one OnEvent
	steps atomic.Int64 // operation-wide merge-step counter
}

// workerEnv derives worker id's execution environment by copy, so every Env
// field is inherited unless named here: its share of the broker; the worker
// tag; serialized event delivery with per-worker phase events suppressed
// (the coordinator owns the operation's phase, and with it the SetPhase and
// SetReclaim hooks); and the operation-wide step counter shared so
// (Worker, Step) pairs stay unique.
func (c *crew) workerEnv(e *Env, share Broker, id int) *Env {
	we := *e
	we.Mem = share
	we.Worker = id + 1
	we.SetPhase, we.SetReclaim = nil, nil
	we.stepSeq, we.eventPanics = 0, 0
	we.stepFn = func() int { return int(c.steps.Add(1)) }
	if e.OnEvent != nil {
		we.OnEvent = func(ev Event) {
			if ev.Kind == EvPhase {
				return
			}
			c.evMu.Lock()
			defer c.evMu.Unlock()
			e.deliver(ev) // recovered observer panics count on the operation's Env
		}
	}
	return &we
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

// splitPhase runs the configured in-memory sorting method over e.In on w
// workers and produces the initial set of sorted runs (paper §2.1, §3.1),
// in worker order. Each worker pulls pages from the shared input and honors
// shrink and grow at its own page boundaries. An aborted split frees the
// runs it had produced — cancellation must not leak run storage.
func splitPhase(e *Env, cfg SortConfig, st *SortStats, w int) ([]*runInfo, error) {
	e.setPhase("split")
	split, minNeed := replSplit, max(cfg.MinPages, cfg.BlockPages)
	if cfg.Method == Quick {
		split, minNeed = quickSplit, cfg.MinPages
	}
	// minNeed floors a worker's share at MinPages — and at BlockPages for
	// replacement selection, which needs the full block as output buffer.
	// Both methods degrade gracefully to 1 page, but run length scales with
	// a worker's share, so admitting workers on slivers of a tiny budget
	// multiplies the run count (and per-run store resources, e.g. one fd
	// per live run). Below the floor the crew shrinks toward one worker.
	var shared *lockedInput // W workers pull from one input; one reads it directly
	if w > 1 {
		shared = &lockedInput{in: e.In}
	}
	return runCrew(e, st, w, minNeed, func(we *Env, _ int, wst *SortStats) ([]*runInfo, error) {
		if shared != nil {
			we.In = shared
		}
		runs, err := split(we, cfg, wst)
		if err != nil && shared != nil {
			shared.stop()
		}
		return runs, err
	})
}

// mergePhase merges runs, consuming them, into the operation's stored
// output run — or, when the plan holds its last steps, up to them. A merge
// that runs on one worker holds its last step when e.StreamLast asks for it;
// a merge cut into key partitions always holds one last step a partition,
// which the crew's workers plan down to and the consumer runs in key order.
func mergePhase(e *Env, cfg SortConfig, st *SortStats, w int, runs []*runInfo) (*runInfo, *LastStep, error) {
	e.setPhase("merge")
	switch len(runs) {
	case 0:
		// Empty input still yields a (empty) result run.
		out, err := newRun(e.Store)
		return out, nil, err
	case 1:
		return runs[0], nil, nil
	}
	cuts := fenceCuts(runs, w)
	if cuts == nil {
		m := newMergeEngine(e, cfg, st)
		if !e.StreamLast {
			out, err := m.mergeRuns(runs)
			return out, nil, err
		}
		held, err := m.holdLast(runs)
		if err != nil {
			return nil, nil, err
		}
		return nil, &LastStep{e: e, cfg: cfg, parts: [][]*runInfo{held}, runs: held, tuples: sumTuples(held)}, nil
	}
	parts := make([][]*runInfo, len(cuts)+1)
	held, err := runCrew(e, st, len(parts), cfg.MinPages, func(we *Env, id int, wst *SortStats) ([]*runInfo, error) {
		var err error
		parts[id], err = holdPartition(we, cfg, wst, runs, cuts, id)
		return parts[id], err
	})
	if err != nil {
		freeRuns(e, runs)
		return nil, nil, err
	}
	// The clones read the runs, which the step keeps with the runs the
	// workers wrote; every record of the output is in exactly one run.
	l := &LastStep{e: e, cfg: cfg, runs: runs, tuples: sumTuples(runs)}
	for _, r := range held {
		if !r.shared {
			l.runs = append(l.runs, r)
		}
	}
	l.parts = slices.DeleteFunc(parts, func(p []*runInfo) bool { return len(p) == 0 })
	return nil, l, nil
}

// sumTuples totals the records of runs the engine wrote.
func sumTuples(runs []*runInfo) int {
	n := 0
	for _, r := range runs {
		n += r.tuples
	}
	return n
}

// fenceCuts derives the splitter keys that partition a merge of runs across
// up to w workers: the page fences recorded by the split phase, cut at equal
// cumulative-page intervals. It returns no cuts when w is 1, when the input
// is too small to give every worker two pages, or when a run has no fences
// (runs handed to MergeExisting).
func fenceCuts(runs []*runInfo, w int) []Key {
	total := 0
	for _, r := range runs {
		if len(r.fences) != r.pages {
			return nil
		}
		total += r.pages
	}
	if w = min(w, total/2); w < 2 {
		return nil
	}
	fences := make([]Key, 0, total)
	for _, r := range runs {
		fences = append(fences, r.fences...)
	}
	slices.Sort(fences)
	cuts := make([]Key, w-1)
	for i := range cuts {
		cuts[i] = fences[total*(i+1)/w]
	}
	return cuts
}

// holdPartition merges partition id of runs — a key-range clone of every
// run, which the coordinator keeps — down to its last step, with the full
// adaptation machinery (suspension, paging, dynamic splitting, crew parking,
// cancellation) running against the worker's Env, and returns that step's
// inputs: clones, and runs the worker wrote. An empty partition has none.
func holdPartition(we *Env, cfg SortConfig, st *SortStats, runs []*runInfo, cuts []Key, id int) ([]*runInfo, error) {
	clones, err := rangeClones(we, st, runs, cuts, id)
	if err != nil {
		return nil, err
	}
	return newMergeEngine(we, cfg, st).holdLast(clones)
}

// rangeClones builds partition id's view of every run: the records with
// cuts[id-1] <= key < cuts[id] (the outer partitions are open-ended), each
// clone positioned on its first record. Runs the fences prove empty in the
// range are left out.
func rangeClones(we *Env, st *SortStats, runs []*runInfo, cuts []Key, id int) ([]*runInfo, error) {
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
		if c.page >= c.pages || c.bounded && c.pos == 0 && c.fences[c.page] >= c.hi {
			continue
		}
		clones = append(clones, c)
	}
	return clones, nil
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
