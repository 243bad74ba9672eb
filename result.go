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
// The output is the operator's last step, held back from the store: the
// operator returns before it, and Iterator runs it under the caller's Next,
// record by record, rather than writing every output page only to read it
// back. For Sort and Merge it is the last merge step — a step of one input
// when there was one run to merge (the input fit in memory), of none when
// there was none; GroupBy folds its groups off its
// sort's last step; a Join's is a step of one input too, reading the output
// run its joint step wrote. Such a result keeps the step's input runs until
// Close and runs the step afresh for every Iterator. The contract of a held
// step:
//
//   - Each iterator runs under the operator's memory contract (WithBudget)
//     from the Iterator call until it ends — drained, failed, its
//     range loop broken (All) — or the result is closed. The first one
//     started while the operator is live runs on the operator's own
//     registration; any other registers for itself, an operator of the
//     Budget like any other, and each counts only its own pages.
//     While it runs a step, it holds up to
//     the step's fan-in in pages, one per input — the records go to Next
//     by value, with no output page — taken at the step's first Next, and
//     adapts to its share as every step does: a
//     share that shrank since the operator returned first merges inputs
//     down to a step that fits, as the merge plan would have, and a
//     shrink between two Next calls splits, pages or suspends the step
//     (the runs those merges write belong to the iterator that made them).
//     An iterator dropped before its end keeps its share, and its pages,
//     until Close. Between iterations the Result holds no pages.
//   - Stats, Pages and Tuples are final once an iterator on the operator's
//     registration has drained the step: Stats include the last step's
//     work, and Pages and Tuples count the records that drain handed out
//     (Pages as the pages of PageRecords records they fill). Before that,
//     Pages is 0 and Tuples is what the operator knows when it returns — a
//     Sort's input, a Join's output, the runs a Merge wrote itself, 0 for a
//     GroupBy.
//     Later drains change none of them.
//   - The operator stays on its Budget — and its trace span open — until
//     that drain completes, or Close; Pool is final then.
//   - The step observes the operator's context: canceling it ends a drain
//     with ErrCanceled.
//   - Like the operator, a held step belongs to one goroutine at a time: its
//     iterators may interleave, but not run on several goroutines at once
//     (nor, for a GroupBy, whose iterators share its Aggregator, interleave).
type Result struct {
	// last is the held-back last step.
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

	// Pool reports how its Budget's arbitration treated the operator
	// (admission wait, grants, blocking waits), whatever the admission
	// policy; final once the operator has left the Budget.
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
// yields ErrFreed. Iterator runs the held last step under Next (see
// Result), and may be called again: each Iterator merges the step's inputs
// afresh, and takes its share of the memory contract at once — unless it
// runs on the operator's admission, by an admission of its own that may
// queue or fail under the Budget's AdmissionPolicy, which then is the
// iterator's error.
//
// Records are served from the store's pages: they stay valid as long as
// they are referenced, but callers retaining Record.Payload across many
// records should copy it — a retained payload pins its page's payloads, all
// of them (the page's payload arena on FileStore, nothing
// but the payload bytes; the run's mapping on MmapStore, zero-copy; on the
// default MemStore, the batch's encoded chunk for payloads of 8 bytes or
// less and for payloads the operator made (a Join's tuples), and otherwise
// the input's own payload, capped at its length;
// see README.md, "Buffer ownership and zero-copy"). A GroupBy's payloads
// are its Aggregator's. The iterator gives each input page's record array
// — never the payloads — back to a store that takes it (ReleaseRecords) as
// it moves on.
func (r *Result) Iterator() Iterator {
	if r.freed {
		return FuncIterator(func() (Record, bool, error) {
			return Record{}, false, ErrFreed
		})
	}
	return r.last.iterator(r)
}

// All returns the output records as a range-over-func sequence:
//
//	for rec, err := range res.All() {
//		if err != nil { ... }
//		...
//	}
//
// The sequence yields at most one non-nil error, as its final pair. Each
// range over it is an iteration of its own (see Iterator), so one sequence
// may be ranged again. A loop that breaks early over a held last step (see
// Result) ends that iteration and hands its pages back at once.
func (r *Result) All() iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		it := r.Iterator()
		for {
			rec, ok, err := it.Next()
			if err != nil {
				yield(Record{}, err)
				return
			}
			if !ok {
				return
			}
			if !yield(rec, nil) {
				break
			}
		}
		// The loop broke early: a held step's pages go back now.
		if s, ok := it.(*stepIterator); ok && !s.done {
			s.end(errStopped)
		}
	}
}

// errStopped ends a held step's iteration whose range loop broke early.
var errStopped = errors.New("masort: iteration stopped")

// Close releases the result's storage: the held last step's input runs,
// and the runs, pages and memory shares of any iterator not yet ended. The
// Result must not be iterated afterwards; a second Close returns ErrFreed.
func (r *Result) Close() error {
	if r.freed {
		return ErrFreed
	}
	r.freed = true
	l := r.last
	for _, it := range slices.Clone(l.open) {
		it.end(ErrFreed)
	}
	err := l.step.Close()
	l.completeOp(r, l.base)
	return err
}

// lastStep is what a Result keeps of its operator: the held last step, and
// the memory contract the step runs under.
type lastStep struct {
	step *core.LastStep
	ctx  context.Context
	arb  *memarb.Arbiter // the contract's arbiter
	// agg folds the step's records into GroupBy's groups; nil hands them
	// out as they are.
	agg Aggregator
	// pageRecords sizes Result.Pages.
	pageRecords int

	// mem is the operator's registration with its memory contract until
	// the operator completes: at its first complete drain or Close. The
	// first iterator started meanwhile runs on it (lent) and gives its
	// pages back when it ends; any other registers for itself (admit).
	mem   *memarb.Handle
	lent  bool
	admit func() (*memarb.Handle, error)

	// complete makes the operator's numbers final; leave ends the operator
	// once it is complete and no iterator runs on its registration any
	// more. Each runs once, and is nil afterwards.
	complete func(*Result, Stats)
	leave    func()
	base     Stats // the operator's stats as it returned

	open []*stepIterator // not ended
}

// iterator starts an iteration of the step. It takes its registration at
// once, before its first Next: a consumer that starts on the same Budget
// after it — Sort(res.Iterator()) — then shares the Budget with it instead
// of taking the pages the step will need.
func (l *lastStep) iterator(r *Result) *stepIterator {
	it := &stepIterator{r: r}
	if l.mem != nil && !l.lent {
		it.mem, l.lent = l.mem, true
	} else if mem, err := l.admit(); err != nil {
		it.done, it.err = true, err
		return it
	} else {
		it.mem = mem
	}
	l.open = append(l.open, it)
	return it
}

// completeOp completes the operator, once, with its stats st: no iterator
// starts on its registration any more.
func (l *lastStep) completeOp(r *Result, st Stats) {
	l.mem = nil
	if l.complete == nil {
		return // completed already
	}
	l.complete(r, st)
	l.complete = nil
	l.settle()
}

// settle ends the operator once it is complete and no iterator runs on its
// registration.
func (l *lastStep) settle() {
	if l.complete == nil && !l.lent && l.leave != nil {
		l.leave()
		l.leave = nil
	}
}

// stepIterator runs a held last step under its caller's Next: each record
// comes straight from the step's selection, by value, or folds into a group
// (lastStep.agg).
type stepIterator struct {
	r     *Result
	mem   *memarb.Handle // the memory the step runs under: l.mem while lent
	s     *core.Stream
	ahead []Record // step records shed read ahead of pull
	n     int      // records handed out
	done  bool
	err   error

	// head is the first record of the next group, when open.
	head Record
	open bool
}

// Next starts the step on the first call and hands out its next record.
func (it *stepIterator) Next() (Record, bool, error) {
	if it.done {
		return Record{}, false, it.err
	}
	var rec Record
	var ok bool
	var err error
	if agg := it.r.last.agg; agg != nil {
		rec, ok, err = it.fold(agg)
	} else {
		rec, ok, err = it.pull()
	}
	if !ok {
		it.end(err)
		return Record{}, false, it.err
	}
	it.n++
	return rec, true, nil
}

// pull returns the step's next record: one shed ahead, or the Stream's,
// which it starts on the first call.
func (it *stepIterator) pull() (Record, bool, error) {
	if len(it.ahead) > 0 {
		rec := it.ahead[0]
		it.ahead = it.ahead[1:]
		return rec, true, nil
	}
	if it.s == nil {
		it.s = it.r.last.step.Stream(it.mem)
	}
	return it.s.Next()
}

// fold folds the step's next run of equal keys into one record with agg.
// Only one group is open at a time; head is the first record of the next
// one. The last group's Finish runs before the step ends.
func (it *stepIterator) fold(agg Aggregator) (Record, bool, error) {
	if !it.open {
		rec, ok, err := it.pull()
		if !ok {
			return Record{}, false, err
		}
		it.head = rec
	}
	key := it.head.Key
	agg.Start(it.head)
	for {
		rec, ok, err := it.pull()
		if err != nil {
			return Record{}, false, err
		}
		if it.head, it.open = rec, ok; !ok || rec.Key != key {
			return Record{Key: key, Payload: agg.Finish(key)}, true, nil
		}
		agg.Add(rec)
	}
}

// shed runs a started step to the adaptation point at which it gives back
// what it holds above its share — an operator reading it has just
// registered on the same arbiter, and asks for pages before it reads —
// keeping the records it passes for pull. The step adapts every page of
// records, so at most a page is read ahead. A step that ends meanwhile
// reports its end to pull after the records read ahead.
func (it *stepIterator) shed() {
	for it.s != nil && !it.done && it.mem.Pressure() > 0 {
		rec, ok, _ := it.s.Next()
		if !ok {
			return
		}
		it.ahead = append(it.ahead, rec)
	}
}

// end ends the iteration with err (nil: the step is done), handing back
// whatever it holds. An iteration that completes on the operator's
// registration makes the Result's numbers final and completes the
// operator.
func (it *stepIterator) end(err error) {
	l := it.r.last
	// Only the lent iterator's drain, or Close after ending it, completes
	// the operator: l.mem is still set while the lent iterator runs.
	lent := it.mem == l.mem
	it.done = true
	it.ahead = nil
	l.open = slices.DeleteFunc(l.open, func(x *stepIterator) bool { return x == it })
	if it.s != nil {
		it.s.Close()
	}
	if lent {
		it.mem.Yield(it.mem.Granted())
		l.lent = false
	} else {
		it.mem.Leave()
	}
	if err != nil {
		it.err = wrapCtxErr(l.ctx, err)
	} else if lent {
		it.r.Stats = it.s.Stats()
		it.r.Tuples = it.n
		it.r.Pages = (it.n + l.pageRecords - 1) / l.pageRecords
		l.completeOp(it.r, it.r.Stats)
	}
	l.settle()
}
