package core

import (
	"context"
	"time"
)

// RunID identifies a sorted run in a RunStore.
type RunID int

// Token is the completion handle of an asynchronous run write. In the
// simulator Wait blocks the sort's process until the disk completes the
// write; real synchronous stores return already-completed tokens.
type Token interface {
	Wait() error
}

// PageToken is the completion handle of an asynchronous page read.
type PageToken interface {
	Wait() (Page, error)
}

// PageReleaser is optionally implemented by read tokens (discovered by type
// assertion) whose store wants the page's memory back: Release ends the
// token's life and hands the page — its record array and whatever its
// payloads alias — to the store for reuse by a later read. The caller must
// hold no reference into the page any more, and none may survive anywhere
// else: the merge releases an input page once every output page holding one
// of its records has been appended and that Append has returned. A store
// whose tokens offer Release therefore promises more than RunStore asks: its
// Append has copied every payload byte by the time it returns, whenever its
// token completes, and retains none (not only no page slices). A store whose
// payloads are views of bytes it keeps — MemStore's stored chunks, which
// later reads of the page decode again, or the caller's payloads it shares
// — must never offer it: MemStore's encoded pages offer RecordsReleaser
// alone, and the merge gives them back that way as soon as it has copied
// the records out.
//
// Release is optional for the caller too: a page that is never released is
// garbage-collected as before. The merge releases what it consumes in steady
// state and leaves every page an adaptation drops to the collector; the drain
// path gives back record arrays only (RecordsReleaser). A second Release is
// a no-op, and so is one before the token's Wait has delivered a page.
type PageReleaser interface {
	Release()
}

// RecordsReleaser is PageReleaser's smaller neighbour, as optional and found
// the same way: ReleaseRecords hands back the page's record array alone. The
// caller must not read the Page slice again, but Record values it copied out
// stay good, payloads included — whatever those alias is never reused, a
// retained Payload pins it as it always has. So it asks nothing of Append,
// and a reader that serves Records and cannot know who keeps them — the
// output iterator behind Result.Iterator, page by page as it leaves them —
// may call it where Release would be wrong. It ends the token's life like
// Release (neither does anything after the other); before the read has
// completed, after it failed, and a second time it is a no-op.
type RecordsReleaser interface {
	ReleaseRecords()
}

// RunStore stores sorted runs. Implementations are bound to the executing
// process/goroutine: all calls for one *run* come from that single context
// (different runs may be driven from different goroutines).
//
// Buffer ownership: a store must not retain the page slices passed to
// Append past the completion of the returned token — the engine recycles
// its output page buffers once the token completes. Conversely, pages
// returned by ReadAsync are owned by the store's caller for reading; the
// caller must treat them as immutable (stores may return shared or
// buffer-aliasing pages). They stay valid for as long as they are
// referenced, unless the read token offers Release (PageReleaser) and the
// caller invokes it: then the page is the store's again, and the store in
// turn guarantees that Append keeps no payload bytes past its token.
type RunStore interface {
	// Create opens a new empty run.
	Create() (RunID, error)
	// Append writes pages to the end of the run asynchronously. The pages
	// become readable once the returned token completes, and the caller may
	// reuse the page slices from that moment on.
	Append(id RunID, pages []Page) (Token, error)
	// ReadAsync starts reading one page (0-based) of the run.
	ReadAsync(id RunID, page int) PageToken
	// Pages returns the number of pages appended so far.
	Pages(id RunID) int
	// Free releases the run's storage.
	Free(id RunID) error
}

// Input is the source relation, consumed one page at a time (an external
// sort makes a single pass over its input during the split phase).
type Input interface {
	// NextPage returns the next input page, or ok=false at end of input.
	NextPage() (Page, bool, error)
}

// Broker arbitrates buffer pages between the sort and the rest of the
// system. Pages are logical 8 KB units; Granted tracks what the sort holds,
// Target what it is currently entitled to — never below the floor, never 0.
// When Target drops below Granted the sort is under pressure and must Yield
// pages as fast as its current phase permits — the paper's central
// adaptation problem. Granted may be 0 with Target above it, while siblings
// on a shared pool have not yet yielded their surplus. Broker is the
// operator's side of the reservation protocol; whoever moves the target
// (masort.Budget's owner, a Pool's reservations, the simulated buffer
// manager) holds the other side.
type Broker interface {
	Granted() int
	Target() int
	// Acquire grants up to n additional pages (bounded by Target and
	// availability) and returns the number granted.
	Acquire(n int) int
	// Yield returns n pages. The caller must have logically freed them.
	Yield(n int)
	// Pressure returns max(0, Granted()-Target()).
	Pressure() int
	// WaitTarget blocks until Target() >= n or ctx is done, whose error it
	// then returns. Whether n is bounded is the broker's policy, not the
	// protocol's: a private budget waits for n itself, however long its
	// owner takes to restore it; a shared pool (real or simulated) bounds n
	// by what its total could ever entitle the caller to, so the wait ends
	// once competing demands drain — possibly with Target() still below n,
	// which the caller must then make do with.
	WaitTarget(ctx context.Context, n int) error
	// WaitChange blocks until the target may have changed or ctx is done,
	// whose error it then returns. Where other goroutines change the target
	// (the real engine), "changed" counts from the caller's last WaitChange,
	// not from the moment of the call: check, then wait must not lose a
	// change that lands in between. A broker whose waits cannot be
	// interrupted (the simulator's, single-threaded) may ignore ctx.
	WaitChange(ctx context.Context) error
}

// Op enumerates CPU operations charged through the Meter. The instruction
// costs live in cpumodel.CostTable (the paper's Table 4).
type Op int

const (
	OpCompare    Op = iota // key comparison
	OpCopyTuple            // copy one tuple between buffers/heap
	OpBuildEntry           // build a (key,pointer) entry for Quicksort
	OpSwapEntry            // swap (key,pointer) entries during Quicksort
	OpStartIO              // initiate a disk request
	OpFixPage              // per-page buffer bookkeeping
)

// Meter receives CPU charges. The simulator implementation occupies the
// simulated CPU; the real engine's implementation just counts.
type Meter interface {
	Charge(op Op, n int64)
}

// Env bundles the substrate a sort executes against.
type Env struct {
	In    Input
	Store RunStore
	Mem   Broker
	Meter Meter
	// Ctx, when non-nil, cancels the operation: it is polled at every
	// adaptation point (split-phase page boundaries, merge output-page and
	// step boundaries, suspension waits), and the sort returns Ctx.Err()
	// promptly, freeing every run it created along the way.
	Ctx context.Context
	// Now returns the current time (simulated or wall-clock).
	Now func() time.Duration
	// SetPhase optionally reports phase transitions ("split", "merge",
	// "idle") so the buffer manager can attribute request delays.
	SetPhase func(string)
	// SetReclaim optionally registers a synchronous clean-buffer reclaimer
	// with the host's buffer manager (see bufmgr.OpHandle.SetReclaimer).
	// The merge engine registers itself while running, so competing memory
	// requests are served from clean input buffers the instant they arrive
	// — the paper's sub-millisecond merge-phase delays. Hosts whose budget
	// changes arrive from concurrent goroutines (the real engine) must
	// leave this nil; adaptation then happens at page boundaries.
	SetReclaim func(fn func(need int) int)
	// OnEvent optionally receives adaptation events (splits, combines,
	// suspensions, phase changes) as they happen — the observable history
	// of how the operator adapted to memory fluctuation.
	OnEvent func(Event)

	// ClassicSelection makes replacement selection run on the classic
	// binary heap (rsHeap) instead of the batched selector. Both pop the
	// same record sequence; the simulator sets it because its CPU model
	// charges the heap's comparison counts (paper Table 4), which must not
	// move with the real engine's choice of structure.
	ClassicSelection bool

	// StreamLast makes a sort or merge stop before its last merge step and
	// hand the step back (SortResult.Last) for its consumer to run, instead
	// of writing the output to the store only for the consumer to read it
	// back. The simulator leaves it unset: its sorts write their result, as
	// the paper's do.
	StreamLast bool

	// Owned, when non-nil, is Store as seen by a run of records whose
	// payloads the engine makes for it — a join's output tuples — and keeps
	// no other reference to: a run created through it has its payloads
	// copied where Store may share them. Nil means Store.
	Owned RunStore

	// stepSeq numbers merge steps within the operation (1-based). Every
	// merge step runs on the operator's goroutine, so no synchronization is
	// needed.
	stepSeq int
	// eventPanics counts OnEvent callbacks that panicked and were recovered.
	eventPanics int
}

// owned is the store to create a run of records whose payloads the engine
// made in: Owned, or Store.
func (e *Env) owned() RunStore {
	if e.Owned != nil {
		return e.Owned
	}
	return e.Store
}

// nextStep hands out the next merge-step id.
func (e *Env) nextStep() int {
	e.stepSeq++
	return e.stepSeq
}

func (e *Env) charge(op Op, n int64) {
	if n > 0 && e.Meter != nil {
		e.Meter.Charge(op, n)
	}
}

func (e *Env) setPhase(p string) {
	if e.SetPhase != nil {
		e.SetPhase(p)
	}
	e.emit(EvPhase, 0, p)
}

func (e *Env) setReclaimFn(fn func(need int) int) {
	if e.SetReclaim != nil {
		e.SetReclaim(fn)
	}
}

func (e *Env) now() time.Duration {
	if e.Now != nil {
		return e.Now()
	}
	return 0
}

// ctxErr reports the Env's cancellation state.
func (e *Env) ctxErr() error { return e.ctx().Err() }

// ctx is the context the broker's waits observe: Ctx, or Background for an
// operation that cannot be canceled.
func (e *Env) ctx() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// yieldAll hands every granted page back to the broker.
func (e *Env) yieldAll() {
	if g := e.Mem.Granted(); g > 0 {
		e.Mem.Yield(g)
	}
}

// freeRuns releases runs abandoned by an aborted operation (best effort:
// store errors during cleanup are dropped in favor of the original error).
func freeRuns(e *Env, runs []*runInfo) {
	for _, r := range runs {
		_ = r.free(e.Store)
	}
}
