package masort

import "runtime"

// Option configures Sort, Join, GroupBy and Merge. Options compose left to
// right; later options override earlier ones.
type Option func(*config)

// WithMethod selects the split-phase in-memory sorting method.
func WithMethod(m Method) Option {
	return func(o *config) { o.method = m }
}

// WithBlockPages sets the replacement-selection write block in pages
// (default 6 — the paper's repl6).
func WithBlockPages(n int) Option {
	return func(o *config) { o.blockPages = n }
}

// WithMergeStrategy selects the preliminary-merge fan-in policy.
func WithMergeStrategy(s MergeStrategy) Option {
	return func(o *config) { o.merge = s }
}

// WithAdaptation selects the merge-phase reaction to budget changes.
func WithAdaptation(a Adaptation) Option {
	return func(o *config) { o.adaptation = a }
}

// WithPageRecords sets records per page — the granularity of both I/O and
// memory accounting (default 256).
func WithPageRecords(n int) Option {
	return func(o *config) { o.pageRecords = n }
}

// WithBudget sets the adjustable memory contract the operator runs under
// (default: a private, fixed 64 pages). The same *Budget may be shared by
// several operators (a query plan) and resized from any goroutine while
// they run.
func WithBudget(b *Budget) Option {
	return func(o *config) { o.budget = b }
}

// WithPool runs the operator under a process-wide shared Pool instead of a
// private Budget: the operator is admitted at start (which may queue or
// fail, see AdmissionPolicy), receives an equal share of the pool
// arbitrated against all concurrently running operators and application
// reservations, and detaches when it finishes. The operator's view of the
// arbitration is reported in Result.Pool. WithPool overrides WithBudget.
func WithPool(p *Pool) Option {
	return func(o *config) { o.pool = p }
}

// WithStore sets the run store (default NewMemStore; use NewFileStore, or
// another StoreConfig backend, for datasets larger than memory).
func WithStore(s RunStore) Option {
	return func(o *config) { o.store = s }
}

// WithAdaptiveBlockIO spends budget beyond a merge step's requirement on
// multi-page read-ahead (the read side of the paper's §7 future-work
// extension). Output blocks do not depend on it: every merge writes its
// output a fixed few pages at a time.
func WithAdaptiveBlockIO(on bool) Option {
	return func(o *config) { o.adaptiveBlockIO = on }
}

// WithWorkers sets how many workers each phase of the operator runs on —
// the single CPU-parallelism option, and plain data to the engine's one
// phase driver. n = 0 means "use every core" (runtime.GOMAXPROCS(0),
// resolved when the option is applied); n <= 1 means one worker, the
// default: the phases then run inline on the caller's goroutine and no
// goroutine is started.
//
// The worker count changes neither the output nor the memory contract: the
// result is value-identical at every n, and the workers collectively never
// hold more than the Budget/Pool target — a Shrink propagates to every
// worker at its next page boundary, parking (suspending) workers the
// shrunken budget can no longer sustain (at least one always keeps
// merging). With n > 1 the output may come back as several key-partitioned
// segment runs; Result.Iterator chains them transparently and Result.Close
// frees them all. Stats.Workers reports the worker count used. The
// simulator never sets it — simulated sorts are defined to be
// single-threaded.
func WithWorkers(n int) Option {
	return func(o *config) {
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n < 1 {
			n = 1
		}
		o.workers = n
	}
}

// WithEvents installs a callback receiving adaptation events (phase
// changes, step splits, combines, suspensions) as they happen.
//
// Concurrency contract: the engine invokes the callback sequentially —
// never concurrently with itself for one operator. On one worker it is
// called on the operator's own goroutine; more workers (WithWorkers)
// serialize their events through a mutex, so calls may arrive on worker
// goroutines (Event.Worker says which). A callback shared across operators (a pooled
// workload) must be safe for concurrent use, since each operator invokes
// its own copy of the stream. The callback must be fast — it runs inside the sort's adaptation
// path. A panicking callback is recovered and counted in
// Stats.EventPanics; it never corrupts the operation.
func WithEvents(fn func(Event)) Option {
	return func(o *config) { o.onEvent = fn }
}

// WithTracer attaches a tracer to the operator: it receives the full
// observability stream — operator begin/end, phase transitions, every
// sorted run, merge-step spans, adaptation actions (splits, combines,
// suspensions, resumes) and per-operation store I/O with byte counts and
// latencies. Combine tracers with trace.Multi; share one trace.Metrics
// across operators to aggregate a whole workload.
//
// Most events fire on the operator's goroutine, but store I/O completions
// may fire from other goroutines — tracers must be safe for concurrent use
// (all implementations in the trace package are). A nil tracer is valid
// and costs nothing; a panicking tracer is recovered and counted in
// Stats.EventPanics.
//
// Tracing also fills the Stats store-I/O aggregates (StoreReads,
// BytesWritten, ...), which stay zero on the untraced path.
func WithTracer(t Tracer) Option {
	return func(o *config) { o.tracer = t }
}

// WithEventLog attaches a flight-recorder ring retaining the operator's
// last n trace events to Result.Events — cheap always-on capture of the
// moments before whatever made the result interesting. It composes with
// WithTracer (both see the stream).
func WithEventLog(n int) Option {
	return func(o *config) { o.eventLog = n }
}

// applyOptions folds a chain of options into the configuration.
func applyOptions(opts []Option) config {
	var o config
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}
