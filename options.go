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

// WithBudget sets the memory contract the operator runs under (default: a
// private, fixed 64 pages). The same *Budget may be shared by several
// operators — a query plan, or a process-wide pool — and resized from any
// goroutine while they run: the operators running on it at once get equal
// shares of its target, of at least the floor each, and each counts only
// its own pages. The operator is admitted at start by the Budget's
// AdmissionPolicy (which may raise the target, queue or fail) and leaves
// when it finishes: since every Result is its operator's held last step
// (see Result), once its first drain has completed (or it is closed) and
// the iterator running on its admission has ended. That step runs under the
// same Budget, from the Iterator call until the iterator ends, and holds
// none of it in between; any other iterator of the Result is admitted
// afresh, at the Iterator call, for its own duration. Under QueueWhenFull
// an operator whose input is such an iterator of the same Budget is not
// queued: its input runs only when it reads it, so it fails with
// ErrPoolSaturated when the budget cannot cover both floors rather than
// wait on itself (an input wrapped in another Iterator, a FuncIterator say,
// is not recognised). The operator's view of the arbitration is reported
// in Result.Pool, final once the operator has left.
func WithBudget(b *Budget) Option {
	return func(o *config) { o.budget = b }
}

// WithStore sets the run store (default NewMemStore, which holds the runs
// in memory, encoded or by reference to the payloads, whichever is smaller; use
// a FileStore or an MmapStore, built by NewStoreConfig, for datasets larger
// than memory).
func WithStore(s RunStore) Option {
	return func(o *config) { o.store = s }
}

// WithWorkers sets the worker count a sort reports in Stats.Workers. n = 0
// means "use every core" (runtime.GOMAXPROCS(0), resolved when the option
// is applied); n <= 1 means one, the default; any n >= 2 resolves to two.
//
// The count changes nothing else: at every n the sort runs on the caller's
// goroutine and starts none — replacement selection keeps one heap over
// the operator's whole target, then one merge runs there too (its last
// step under Result.Iterator, see Result) — so the output, the runs, the
// I/O and the memory contract are the one-worker sort's: dividing the
// target among several heaps would halve the runs and add merge I/O. The
// simulator never sets it.
//
// Merge reports one worker whatever n is: it has no runs to generate.
func WithWorkers(n int) Option {
	return func(o *config) {
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		o.workers = min(max(n, 1), 2)
	}
}

// WithEvents installs a callback receiving adaptation events (phase
// changes, step splits, combines, suspensions) as they happen.
//
// Concurrency contract: the engine invokes the callback sequentially, on
// the operator's own goroutine — and for a held last merge step (see
// Result), on the goroutine draining it. A callback shared across
// operators (a pooled workload) must be safe for concurrent use, since each
// operator invokes its own copy of the stream.
// The callback must be fast — it runs inside the sort's adaptation path.
// A panicking callback is recovered and counted in
// Stats.EventPanics; it never corrupts the operation.
func WithEvents(fn func(Event)) Option {
	return func(o *config) { o.onEvent = fn }
}

// WithTracer attaches a tracer to the operator: it receives the full
// observability stream — operator begin/end, phase transitions, every
// sorted run, merge-step spans, adaptation actions (splits, combines,
// suspensions, resumes) and per-operation store I/O with byte counts and
// latencies. Combine tracers with trace.Multi. It is the one route by which
// events leave the engine: a Budget or a store emits none.
//
// The operator's events reach its tracer on one goroutine at a time — the
// operator's, or for a held last merge step the one draining the Result —
// so a tracer needs to be safe for concurrent use only when operators share
// it (all implementations in the trace package are). A nil tracer is valid
// and costs nothing; a panicking tracer is recovered and counted in
// Stats.EventPanics.
//
// Tracing also fills the Stats store-I/O aggregates (StoreReads,
// BytesWritten, ...), which stay zero on the untraced path;
// Stats.StoreRetries is counted either way.
func WithTracer(t Tracer) Option {
	return func(o *config) { o.tracer = t }
}

// WithEventLog attaches a flight-recorder ring retaining the operator's
// last n trace events to Result.Events — cheap always-on capture of the
// moments before whatever made the result interesting. It composes with
// WithTracer (both see the operator's stream) and, like it, fills the Stats
// store-I/O aggregates.
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
