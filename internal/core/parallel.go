package core

// The split's phase driver. Run generation runs through runCrew, which takes
// the worker count as data. At W = 1 the phase body runs inline on the
// caller's goroutine against the caller's own Env: that is every simulated
// sort and every sort without WithWorkers, so the simulator stays
// single-threaded and byte-identical by construction. At W > 1 the same
// body runs on W goroutines, each against a derived Env. internal/core
// spawns goroutines in exactly one place: runCrew's workers. The merge has
// one plan at every W: mergePhase runs it on the operation's goroutine,
// under the operation's whole target.
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
//     zero: a parked worker waits on the same arbiter until budget returns
//     or a sibling finishes.
//   - Workers pull input pages from a mutex-guarded shared input and run
//     the ordinary quickSplit/replSplit against their own Env view, each
//     appending complete runs through its own store path. The runs of all
//     workers are the merge's inputs, as one worker's would be.
import (
	"slices"
	"sync"

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
type phaseFn func(we *Env, st *SortStats) ([]*runInfo, error)

// runCrew runs one phase on w workers and returns their output runs in
// worker order. On error every output is freed and the whole grant handed
// back, so an aborted phase leaves nothing behind of its own.
//
// A crew of one is not a crew: fn runs inline with the parent Env and stats
// — no goroutine, no sub-handles, no share arithmetic.
func runCrew(e *Env, st *SortStats, w, minNeed int, fn phaseFn) ([]*runInfo, error) {
	var outs []*runInfo
	var err error
	if w == 1 {
		outs, err = fn(e, st)
	} else {
		// The caller checked that e.Mem is a crewBroker (effectiveWorkers).
		shares := e.Mem.(crewBroker).Divide(w, minNeed)
		c := &crew{}
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
				wouts[id], errs[id] = fn(c.workerEnv(e, shares[id], id), &wst[id])
			}()
		}
		wg.Wait()
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

// add folds one worker's counters into the operation's stats. A worker
// only generates runs, so only the split's counters move.
func (s *SortStats) add(w *SortStats) {
	s.TuplesIn += w.TuplesIn
	s.PagesIn += w.PagesIn
	s.Runs += w.Runs
	s.RunPagesWritten += w.RunPagesWritten
}

// crew is what the workers of one phase share besides the operation's
// Broker (whose sub-handles arbitrate their memory): one event stream.
type crew struct {
	evMu sync.Mutex // serializes worker events into the one OnEvent
}

// workerEnv derives worker id's execution environment by copy, so every Env
// field is inherited unless named here: its share of the broker; the worker
// tag; and serialized event delivery with per-worker phase events
// suppressed (the coordinator owns the operation's phase, and with it the
// SetPhase and SetReclaim hooks).
func (c *crew) workerEnv(e *Env, share Broker, id int) *Env {
	we := *e
	we.Mem = share
	we.Worker = id + 1
	we.SetPhase, we.SetReclaim = nil, nil
	we.eventPanics = 0
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
	return runCrew(e, st, w, minNeed, func(we *Env, wst *SortStats) ([]*runInfo, error) {
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
