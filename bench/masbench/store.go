package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/memadapt/masort"
)

// countingStore counts what passes through the RunStore seam — pages
// appended, page reads issued, runs created and freed — without reading a
// clock or wrapping a token, so a sort behind it is the same program as a
// bare one. It is part of the load generator of a fluctuating workload
// (page operations are that workload's notion of progress) and of every
// traced rep.
type countingStore struct {
	masort.RunStore
	fluct *fluctDriver // nil unless the workload's budget fluctuates

	pagesWritten atomic.Int64
	pagesRead    atomic.Int64
	creates      atomic.Int64
	frees        atomic.Int64
}

func (s *countingStore) Create() (masort.RunID, error) {
	id, err := s.RunStore.Create()
	if err == nil {
		s.creates.Add(1)
	}
	return id, err
}

func (s *countingStore) Append(id masort.RunID, pages []masort.Page) (masort.Token, error) {
	if n := int64(len(pages)); n > 0 {
		s.pagesWritten.Add(n)
		s.fluct.advance(n)
	}
	return s.RunStore.Append(id, pages)
}

func (s *countingStore) ReadAsync(id masort.RunID, page int) masort.PageToken {
	s.pagesRead.Add(1)
	s.fluct.advance(1)
	return s.RunStore.ReadAsync(id, page)
}

func (s *countingStore) Free(id masort.RunID) error {
	err := s.RunStore.Free(id)
	if err == nil {
		s.frees.Add(1)
	}
	return err
}

// fluctDriver resizes a budget along a schedule keyed on store page
// operations (pages appended + page reads issued), never on wall-clock
// time: the change lands on whichever goroutine issues the operation that
// crosses a multiple of every, which at workers = 1 is the sort's own. It
// also measures, in page operations, how long the operator takes to hand
// memory back after each shrink that leaves it holding more than its
// target. With rec nil it reads no clock.
type fluctDriver struct {
	budget *masort.Budget
	sched  *schedule
	every  int64
	rec    *recorder

	ops     atomic.Int64
	pending atomic.Bool // a shrink's pressure has not cleared yet

	mu            sync.Mutex
	stopped       bool
	targets       []int // every target set, in order
	pendingAt     int64
	pendingSince  time.Time
	reactionPages []int64
	reactionMs    []float64
}

func newFluctDriver(w workload, budget *masort.Budget, rec *recorder) *fluctDriver {
	return &fluctDriver{
		budget: budget,
		sched:  newSchedule(w),
		every:  int64((w.inputPages() + fluctLevels - 1) / fluctLevels),
		rec:    rec,
	}
}

// advance accounts n page operations. A nil driver does nothing.
func (d *fluctDriver) advance(n int64) {
	if d == nil {
		return
	}
	after := d.ops.Add(n)
	crossed := (after-n)/d.every != after/d.every
	if !crossed && !d.pending.Load() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	d.settle(after)
	if crossed {
		d.resize(after)
	}
}

// settle closes the open pressure episode once the operator has yielded
// down to its target. Called with mu held.
func (d *fluctDriver) settle(ops int64) {
	if !d.pending.Load() || d.budget.Pressure() > 0 {
		return
	}
	d.pending.Store(false)
	d.reactionPages = append(d.reactionPages, ops-d.pendingAt)
	if d.rec != nil {
		d.reactionMs = append(d.reactionMs, float64(time.Since(d.pendingSince))/1e6)
	}
}

// resize moves the budget to the schedule's next level. Called with mu
// held.
func (d *fluctDriver) resize(ops int64) {
	pages := d.sched.nextPages()
	d.targets = append(d.targets, pages)
	var start time.Time
	if d.rec != nil {
		start = time.Now()
	}
	d.budget.Resize(pages)
	if d.rec != nil {
		d.rec.add(spanBudgetResize, d.rec.phase(), start, time.Now())
	}
	if !d.pending.Load() && d.budget.Pressure() > 0 {
		d.pending.Store(true)
		d.pendingAt = ops
		if d.rec != nil {
			d.pendingSince = time.Now()
		}
	}
}

// stop ends the schedule when the operator returns: the drain that follows
// must not resize a budget nobody holds. An episode still open closes here,
// because a finished operator holds nothing.
func (d *fluctDriver) stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.settle(d.ops.Load())
	d.stopped = true
}

// timingStore records a span around every call that moves pages through
// the RunStore seam and around every token wait. It is on only in the
// traced rep. Its tokens forward Retries, so the engine's own store
// accounting (Stats.StoreRetries) reads the same with it in place.
type timingStore struct {
	masort.RunStore
	rec *recorder
}

func (s *timingStore) Append(id masort.RunID, pages []masort.Page) (masort.Token, error) {
	if len(pages) == 0 {
		return s.RunStore.Append(id, pages)
	}
	start := time.Now()
	tok, err := s.RunStore.Append(id, pages)
	s.rec.add(spanStoreAppend, s.rec.phase(), start, time.Now())
	if err != nil {
		return tok, err
	}
	return &timedToken{Token: tok, rec: s.rec}, nil
}

func (s *timingStore) ReadAsync(id masort.RunID, page int) masort.PageToken {
	start := time.Now()
	tok := s.RunStore.ReadAsync(id, page)
	s.rec.add(spanStoreReadIssue, s.rec.phase(), start, time.Now())
	return &timedPageToken{PageToken: tok, rec: s.rec}
}

// retrier is what store tokens implement to report retried attempts.
type retrier interface{ Retries() int }

func retriesOf(tok any) int {
	if rt, ok := tok.(retrier); ok {
		return rt.Retries()
	}
	return 0
}

// timedToken spans the first Wait on an append batch. A token may be
// waited on from more than one goroutine, hence the atomic flag.
type timedToken struct {
	masort.Token
	rec  *recorder
	done atomic.Bool
}

func (t *timedToken) Wait() error {
	if t.done.Swap(true) {
		return t.Token.Wait()
	}
	start := time.Now()
	err := t.Token.Wait()
	t.rec.add(spanStoreWriteWait, t.rec.phase(), start, time.Now())
	return err
}

func (t *timedToken) Retries() int { return retriesOf(t.Token) }

// timedPageToken spans the first Wait on a page read.
type timedPageToken struct {
	masort.PageToken
	rec  *recorder
	done atomic.Bool
}

func (t *timedPageToken) Wait() (masort.Page, error) {
	if t.done.Swap(true) {
		return t.PageToken.Wait()
	}
	start := time.Now()
	pg, err := t.PageToken.Wait()
	t.rec.add(spanStoreReadWait, t.rec.phase(), start, time.Now())
	return pg, err
}

func (t *timedPageToken) Retries() int { return retriesOf(t.PageToken) }
