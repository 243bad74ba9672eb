package masort

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"github.com/memadapt/masort/internal/core"
	"github.com/memadapt/masort/internal/memarb"
)

// Method selects the split-phase in-memory sorting method.
type Method int

const (
	// ReplacementSelection produces runs averaging twice the memory size;
	// with BlockPages > 1 it writes runs in blocks to cut disk seeks. This
	// is the paper's recommended method (repl6 with BlockPages=6).
	ReplacementSelection Method = iota
	// Quicksort fills memory, sorts, and writes memory-sized runs. It frees
	// memory only at run boundaries, so it reacts to Shrink more slowly.
	Quicksort
)

// MergeStrategy selects the preliminary-merge fan-in policy.
type MergeStrategy int

const (
	// Optimized merges just enough runs first so every later step merges at
	// full fan-in (the paper's "opt"; almost always the right choice).
	Optimized MergeStrategy = iota
	// Naive merges at full fan-in in every step.
	Naive
)

// Adaptation selects the merge-phase reaction to budget changes.
type Adaptation int

const (
	// DynamicSplitting splits an executing merge step into sub-steps that
	// fit a shrunken budget and combines steps when the budget grows — the
	// paper's contribution and the best performer.
	DynamicSplitting Adaptation = iota
	// MRUPaging keeps merging with fewer buffers, paging inputs in and out
	// with most-recently-used replacement.
	MRUPaging
	// Suspension stops a merge step whose requirement the target no longer
	// covers and waits. How long depends on the Budget's AdmissionPolicy:
	// under AdmitAll it sleeps until the budget's owner restores the step's
	// requirement; under the other policies, which have no owner to wait
	// for, the wait is bounded by the budget's target — below it the step
	// resumes on what there is and suspends again at its next page.
	Suspension
)

// mergeBlockPages is how many output pages a merge step, and WriteRun,
// gather for one Append: the paper's repl6 block (its Table 5: per-page disk
// cost falls with block size), applied to every run the engine writes and
// not only to run generation's. A buffered positional write of a 6.4 KB page
// costs about half as much per page at six pages a call as at one. It is a
// constant, not an option, and the memory it stands for is bounded by it
// whatever the budget, fan-in or input size: at most six page buffers
// pending and six in flight per writer, plus the input frames the merge
// retired into the pending block (released when its Append returns) — the
// second constant-bounded holder outside the budget, beside maxFreeFrames.
const mergeBlockPages = 6

// config is what the functional options fold into. The zero value gives the
// paper's recommended algorithm (repl6,opt,split) with an in-memory store
// and a fixed 64-page budget; each field is documented on its With* option.
type config struct {
	method      Method
	blockPages  int
	merge       MergeStrategy
	adaptation  Adaptation
	pageRecords int
	budget      *Budget
	store       RunStore
	workers     int
	onEvent     func(Event)
	tracer      Tracer
	eventLog    int
}

func (o config) build() (core.SortConfig, config, error) {
	cfg := core.SortConfig{
		PageRecords: o.pageRecords,
		BlockPages:  o.blockPages,
	}
	if cfg.PageRecords == 0 {
		cfg.PageRecords = 256
		o.pageRecords = 256
	}
	switch o.method {
	case ReplacementSelection:
		cfg.Method = core.Repl
		if cfg.BlockPages == 0 {
			cfg.BlockPages = 6
		}
	case Quicksort:
		cfg.Method = core.Quick
	default:
		return cfg, o, fmt.Errorf("masort: unknown method %d", o.method)
	}
	switch o.merge {
	case Optimized:
		cfg.Merge = core.OptMerge
	case Naive:
		cfg.Merge = core.NaiveMerge
	default:
		return cfg, o, fmt.Errorf("masort: unknown merge strategy %d", o.merge)
	}
	switch o.adaptation {
	case DynamicSplitting:
		cfg.Adapt = core.DynSplit
	case MRUPaging:
		cfg.Adapt = core.Paging
	case Suspension:
		cfg.Adapt = core.Suspend
	default:
		return cfg, o, fmt.Errorf("masort: unknown adaptation %d", o.adaptation)
	}
	cfg.MergeBlockPages = mergeBlockPages
	if o.budget == nil {
		o.budget = NewBudget(64)
	}
	if o.store == nil {
		o.store = NewMemStore()
	}
	if err := cfg.Validate(); err != nil {
		return cfg, o, err
	}
	return cfg, o, nil
}

// newEnv assembles the core execution environment shared by every operator
// entry point. With an observer attached (ot non-nil) the engine's event
// stream is routed through it, and with a tracer attached the run store is
// wrapped so per-operation I/O is measured; the returned tracedStore is nil
// on the untraced path.
//
// Phase boundaries label the operator's goroutine for CPU profiles (op,
// phase), so a profile splits run generation from merging without reading
// symbol names. "idle" hands the caller's own labels back — callers defer
// env.SetPhase("idle") so aborted operators do too.
func newEnv(ctx context.Context, o config, mem core.Broker, meter *counterMeter, ot *opTrace, op string) (*core.Env, *tracedStore) {
	start := time.Now()
	env := &core.Env{
		Ctx:        ctx,
		Store:      o.store,
		Mem:        mem,
		Meter:      meter,
		StreamLast: true,
		Now:        func() time.Duration { return time.Since(start) },
		SetPhase: func(phase string) {
			labeled := ctx
			if phase != "idle" {
				labeled = pprof.WithLabels(ctx, pprof.Labels("op", op, "phase", phase))
			}
			pprof.SetGoroutineLabels(labeled)
		},
	}
	var ts *tracedStore
	if ot != nil {
		ot.envStart = start
		env.OnEvent = ot.onEvent
		if ot.tr != nil {
			ts = &tracedStore{RunStore: o.store, ot: ot}
			env.Store = ts
		}
	}
	if ms, ok := o.store.(*MemStore); ok && ms.holdRecords != nil {
		env.Owned = ownedStore{env.Store, ms.pagedStore}
	}
	return env, ts
}

// memContract registers the operator with its Budget's arbiter: at once
// under AdmitAll, raising the target to a floor per operator if it must;
// otherwise only while one more floor fits, queueing (under QueueWhenFull,
// if queue) until it does, or failing — ErrPoolSaturated, the context's
// error if canceled while queued. The handle must Leave exactly once when
// the operator is done.
func memContract(ctx context.Context, o *config, queue bool) (*memarb.Handle, error) {
	h, err := o.budget.arb.Register(ctx, queue)
	if errors.Is(err, memarb.ErrSaturated) {
		err = ErrPoolSaturated
	}
	return h, wrapCtxErr(ctx, err)
}

// pipedSteps returns the inputs that are iterators of a held last step
// (Result.Iterator) running on the arbiter arb: a pipeline whose producer
// runs only when the consumer reads it, on the consumer's goroutine. An
// input wrapped in another Iterator (FuncIterator, say) is not seen.
func pipedSteps(arb *memarb.Arbiter, inputs []Iterator) []*stepIterator {
	var piped []*stepIterator
	for _, in := range inputs {
		if it, ok := in.(*stepIterator); ok && it.r.last.arb == arb {
			piped = append(piped, it)
		}
	}
	return piped
}

// Stats reports what a sort or join did.
type Stats = core.SortStats

// JoinStats extends Stats with join-specific counts.
type JoinStats = core.JoinStats

// Counters tallies CPU-relevant operations (comparisons, tuple copies).
type Counters struct {
	Compares   int64
	TupleMoves int64
}

type counterMeter struct {
	compares atomic.Int64
	moves    atomic.Int64
}

func (m *counterMeter) Charge(op core.Op, n int64) {
	switch op {
	case core.OpCompare:
		m.compares.Add(n)
	case core.OpCopyTuple:
		m.moves.Add(n)
	}
}

func (m *counterMeter) counters() Counters {
	return Counters{
		Compares:   m.compares.Load(),
		TupleMoves: m.moves.Load(),
	}
}

// Sort externally sorts the input under the configured memory budget and
// returns a handle to the sorted output: the last merge step itself, which
// Result.Iterator runs (see Result).
//
// Canceling ctx aborts the sort at its next adaptation point — split-phase
// page boundaries, merge output-page and step boundaries, and suspension
// waits — freeing every run it created; the returned error then matches
// both ErrCanceled and the context's own error.
func Sort(ctx context.Context, input Iterator, opts ...Option) (*Result, error) {
	return sortNamed(ctx, input, applyOptions(opts), "sort")
}

// sortNamed is Sort with the operator name used for trace attribution
// (GroupBy runs on the sort engine but announces itself as "groupby").
func sortNamed(ctx context.Context, input Iterator, opt config, opName string) (*Result, error) {
	return runOp(ctx, opt, opName, []Iterator{input}, func(env *core.Env, cfg core.SortConfig, o config) (*Result, error) {
		env.In = &pageInput{it: input, size: o.pageRecords}
		res, err := core.ExternalSort(env, cfg)
		return sortResult(env, res, err, max(o.workers, 1))
	})
}

// sortResult maps the core's sort (or merge) outcome onto the part of a
// Result the core knows, with the worker count the operator reports; runOp
// completes it.
func sortResult(env *core.Env, res *core.SortResult, err error, workers int) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res.Stats.Workers = workers
	return heldResult(env, res.Last, res.Tuples, res.Stats), nil
}

// heldResult is a Result whose output is the held last step last, running
// under env's contract.
func heldResult(env *core.Env, last *core.LastStep, tuples int, st Stats) *Result {
	// newEnv's broker is always memContract's handle.
	l := &lastStep{step: last, ctx: env.Ctx, mem: env.Mem.(*memarb.Handle)}
	return &Result{last: l, Tuples: tuples, Stats: st}
}

// runOp is the scaffold every operator entry point runs inside: it resolves
// the options, opens the trace span, takes the memory contract (its
// admission), builds the core Env and hands it to run, which makes
// the core call and maps its outcome onto a Result (its held last step,
// sizes, stats). runOp gives that Result the numbers so far — counters,
// measured store I/O, event log, admission stats — and what completes the
// operator at its first complete drain or Close, when the last step has run
// (lastStep); on error it releases the contract, wraps a cancellation and
// closes the span with the error.
//
// inputs are the operator's Iterator inputs. One that is a held step's
// iterator on the same Budget (pipedSteps) runs only when this operator
// reads it, so the operator must not wait for it: its admission does not
// queue (a full budget fails it with ErrPoolSaturated), and a step already
// started sheds down to its share before this operator asks for its first
// page (stepIterator.shed).
func runOp(ctx context.Context, opt config, name string, inputs []Iterator, run func(*core.Env, core.SortConfig, config) (*Result, error)) (*Result, error) {
	cfg, o, err := opt.build()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ot := newOpTrace(&o, name)
	ot.begin()
	piped := pipedSteps(o.budget.arb, inputs)
	mem, err := memContract(ctx, &o, len(piped) == 0)
	if err != nil {
		ot.end(err)
		return nil, err
	}
	for _, it := range piped {
		it.shed()
	}
	meter := &counterMeter{}
	env, ts := newEnv(ctx, o, mem, meter, ot, name)
	defer env.SetPhase("idle")
	out, err := run(env, cfg, o)
	if err != nil {
		mem.Leave()
		err = wrapCtxErr(env.Ctx, err)
		ot.end(err)
		return nil, err
	}
	ot.attach(out)
	l := out.last
	l.base, l.arb, l.pageRecords = out.Stats, o.budget.arb, o.pageRecords
	// complete takes the operator's final stats as the core counted them,
	// with the worker count it reported as it returned; leave ends the
	// operator.
	l.complete = func(out *Result, st Stats) {
		st.Workers = l.base.Workers
		out.Stats, out.Counters = st, meter.counters()
		ot.finishStats(&out.Stats, ts)
		if out.Join != nil {
			out.Join.SortStats = out.Stats
		}
	}
	l.leave = func() {
		mem.Leave()
		*out.Pool = PoolStats(mem.Stats())
		ot.end(nil)
	}
	l.admit = func() (*memarb.Handle, error) { return memContract(ctx, &o, true) }
	// Until the held step completes the operator, the Result shows the
	// numbers so far.
	out.Counters = meter.counters()
	ot.finishStats(&out.Stats, ts)
	st := PoolStats(mem.Stats())
	out.Pool = &st
	return out, nil
}
