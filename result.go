package masort

import (
	"context"
	"errors"
	"iter"
	"slices"

	"github.com/memadapt/masort/internal/core"
	"github.com/memadapt/masort/internal/memarb"
	"github.com/memadapt/masort/trace"
)

// Result is the outcome of a Sort, Join, GroupBy or Merge: a handle to its
// output records plus execution statistics. It implements io.Closer; Close
// releases the result's storage, after which it must not be iterated.
//
// The output is one stored run when the operator is a Join or a GroupBy, or
// had nothing to merge (the input fit in memory). Otherwise the output is the
// operator's last merge step itself, held back from the store: Sort and
// Merge return before it, and Iterator runs it under the caller's Next, page
// by page, rather than writing every output page only to read it back. A
// Sort that merged on more than one worker (WithWorkers) holds one last step
// a key partition, and Iterator runs them one after another in key order.
// Such a result keeps the steps' input runs until Close and runs the steps
// afresh for every Iterator. The contract of a held step:
//
//   - Each iterator is a user of its own of the operator's memory contract
//     (WithBudget, WithPool) from the Iterator call until it ends — drained,
//     failed, its range loop broken (All) — or the result is closed: it
//     shares the Budget with whatever else runs on it meanwhile, each
//     counting only its own pages. While it runs a step, it holds up to
//     the step's fan-in + 1 pages, taken at the step's first Next — one
//     partition's step at a time, which hands its pages back before the
//     next one starts — and adapts to its share as every step does: a
//     share that shrank since the operator returned first merges inputs
//     down to a step that fits, as the merge plan would have, and a
//     shrink between two Next calls splits, pages or suspends the step
//     (the runs those merges write belong to the iterator that made them).
//     An iterator dropped before its end keeps its share, and its pages,
//     until Close. Between iterations the Result holds no pages.
//   - Stats and Pages are final after the first complete drain, and include
//     the last step's merge work; Tuples is final when the operator returns
//     (for Merge, which does not know the size of runs it did not write,
//     after the first complete drain). Later drains change none of them.
//   - Under WithPool the operator stays admitted — and its trace span open —
//     until its first drain completes, or Close, and no iterator started
//     before that still runs; Pool is final then. An iterator started
//     later is admitted afresh, at the Iterator call, for its own duration.
//   - The step observes the operator's context: canceling it ends a drain
//     with ErrCanceled.
//   - Like the operator, a held step belongs to one goroutine at a time: its
//     iterators may interleave, but not run on several goroutines at once.
type Result struct {
	store RunStore
	// run is the stored output, when last is nil.
	run RunID

	// last is the held-back last merge step, nil for a stored output.
	last *lastStep

	// Pages and Tuples size the output.
	Pages  int
	Tuples int

	// Stats reports what the operator did (runs, merge steps, splits,
	// combines, suspensions, phase durations, ...). Response and the phase
	// durations time the operator's call.
	Stats Stats

	// Join carries join-specific statistics (per-relation run counts,
	// result tuples); nil for results of Sort, GroupBy and Merge.
	Join *JoinStats

	// Pool reports how shared-pool arbitration treated the operator
	// (admission wait, grants, blocking waits); nil unless the operator
	// ran under WithPool, final once the operator has left the pool.
	Pool *PoolStats

	// Counters tallies CPU-relevant operations.
	Counters Counters

	// Events is the operator's flight recorder — the last N trace events,
	// oldest first via Events.Events() — when the operator ran with
	// WithEventLog; nil otherwise.
	Events *trace.Ring

	freed bool
}

// Iterator streams the output records in sorted order. A closed result
// yields ErrFreed. A stored output is read with one page of read-ahead
// issued to the store; a held last step runs under Next (see Result), and
// may be iterated again: each Iterator merges its inputs afresh, and takes
// its share of the memory contract at once — under a Pool whose operator
// has completed, by an admission that may queue or fail, which then is the
// iterator's error.
//
// Records are served from the store's pages: they stay valid as long as
// they are referenced, but callers retaining Record.Payload across many
// records should copy it — a retained payload pins its page's payloads, all
// of them (the page's payload arena on FileStore and StripedStore, nothing
// but the payload bytes; the run's mapping on MmapStore, zero-copy; see
// README.md, "Buffer ownership and zero-copy"). The iterator gives each
// page's record array — never the payloads — back to a store that takes it
// (ReleaseRecords) as it moves on; a held step does so with its input pages.
func (r *Result) Iterator() Iterator {
	if r.freed {
		return FuncIterator(func() (Record, bool, error) {
			return Record{}, false, ErrFreed
		})
	}
	if r.last != nil {
		return r.last.iterator(r)
	}
	return &runIterator{store: r.store, id: r.run, pages: r.Pages}
}

// All returns the output records as a range-over-func sequence:
//
//	for rec, err := range res.All() {
//		if err != nil { ... }
//		...
//	}
//
// The sequence yields at most one non-nil error, as its final pair. A loop
// that breaks early over a held last step (see Result) ends that iteration
// and hands its pages back at once.
func (r *Result) All() iter.Seq2[Record, error] {
	it := r.Iterator()
	seq := All(it)
	s, ok := it.(*stepIterator)
	if !ok {
		return seq
	}
	return func(yield func(Record, error) bool) {
		seq(yield)
		if !s.done { // the loop broke early: the step's pages go back now
			s.end(errStopped)
		}
	}
}

// errStopped ends a held step's iteration whose range loop broke early.
var errStopped = errors.New("masort: iteration stopped")

// Close releases the result's storage (a stored run; a held last step's
// input runs, and the runs, pages and memory shares of any iterator not yet
// ended). The Result must not be iterated afterwards; a second Close
// returns ErrFreed.
func (r *Result) Close() error {
	if r.freed {
		return ErrFreed
	}
	r.freed = true
	if l := r.last; l != nil {
		for _, it := range slices.Clone(l.open) {
			it.end(ErrFreed)
		}
		err := l.step.Close()
		l.completeOp(r, l.base)
		return err
	}
	return r.store.Free(r.run)
}

// lastStep is what a Result whose last merge step is held back keeps of its
// operator: the step, and the memory contract the step runs under.
type lastStep struct {
	step *core.LastStep
	ctx  context.Context

	// mem is the operator's memory contract — its party to a Budget, or its
	// Pool admission — until the operator completes: at its first complete
	// drain or Close. Every iterator started meanwhile runs as a party of
	// its own to it (memarb.Handle.Join); one started after that has a
	// contract of its own (admit).
	mem     *memarb.Handle
	parties int // iterators running as parties to mem
	admit   func() (*memarb.Handle, error)

	// complete makes the operator's numbers final; leave ends the operator
	// once it is complete and no iterator runs on its contract any more.
	// Both are nil inside GroupBy, whose operator ends with the groups.
	complete func(*Result, Stats)
	leave    func()
	base     Stats // the operator's stats as it returned
	drained  bool  // a drain under mem has completed: the numbers are final

	open []*stepIterator // not ended
}

// iterator starts an iteration of the step. It becomes a party to the
// memory contract at once, before its first Next: a consumer that starts on
// the same Budget after it — Sort(res.Iterator()) — then shares the Budget
// with it instead of taking the pages the step will need.
func (l *lastStep) iterator(r *Result) *stepIterator {
	it := &stepIterator{r: r}
	if l.mem != nil {
		it.mem, it.party = l.mem.Join(), true
		l.parties++
	} else if mem, err := l.admit(); err != nil {
		it.done, it.err = true, err
		return it
	} else {
		it.mem = mem
	}
	l.open = append(l.open, it)
	return it
}

// completeOp completes the operator, once, with its stats st.
func (l *lastStep) completeOp(r *Result, st Stats) {
	if l.complete == nil {
		return
	}
	l.complete(r, st)
	l.complete = nil
	l.mem = nil
	l.settle()
}

// settle ends the operator once it is complete and its contract has no
// party left.
func (l *lastStep) settle() {
	if l.complete == nil && l.parties == 0 && l.leave != nil {
		l.leave()
		l.leave = nil
	}
}

// stepIterator runs a held last merge step under its caller's Next: the
// step's output pages are the Stream's own buffers, reused page after page,
// and records are handed out by value.
type stepIterator struct {
	r     *Result
	mem   *memarb.Handle // the memory the step runs under, left at the end
	party bool           // mem is a party to the operator's contract
	s     *core.Stream
	page  Page
	pos   int
	pages int
	recs  int
	done  bool
	err   error
}

func (it *stepIterator) Next() (Record, bool, error) {
	for it.pos >= len(it.page) {
		if it.done {
			return Record{}, false, it.err
		}
		it.nextPage()
	}
	rec := it.page[it.pos]
	it.pos++
	return rec, true, nil
}

// nextPage starts the step on the first call and fetches its next page.
func (it *stepIterator) nextPage() {
	if it.s == nil {
		it.s = it.r.last.step.Stream(it.mem)
	}
	pg, ok, err := it.s.NextPage()
	if !ok {
		it.end(err)
		return
	}
	it.page, it.pos = pg, 0
	it.pages++
	it.recs += len(pg)
}

// end ends the iteration with err (nil: the step is done), handing back
// whatever it holds. The first iteration to complete under the operator's
// contract makes the Result's numbers final and completes the operator.
func (it *stepIterator) end(err error) {
	l := it.r.last
	it.done, it.page, it.pos = true, nil, 0
	l.open = slices.DeleteFunc(l.open, func(x *stepIterator) bool { return x == it })
	if it.s != nil {
		it.s.Close()
	}
	it.mem.Leave()
	if err != nil {
		it.err = wrapCtxErr(l.ctx, err)
	} else if it.party && !l.drained {
		l.drained = true
		it.r.Stats, it.r.Pages, it.r.Tuples = it.s.Stats(), it.pages, it.recs
		l.completeOp(it.r, it.r.Stats)
	}
	if it.party {
		l.parties--
		l.settle()
	}
}
