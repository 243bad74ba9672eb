package trace

import (
	"sync"
	"sync/atomic"
)

// Metrics is a Tracer that aggregates the event stream into lock-free
// counters: one per adaptation action and store operation, and an
// observation count per timed span. Emit touches only atomics, so operators
// that share one Metrics aggregate without contention.
//
// The counters use the same vocabulary as masort's Stats: for a single
// operator traced against a fresh registry, masort_runs_total,
// masort_merge_steps_total, masort_splits_total, masort_combines_total,
// masort_suspensions_total and the store byte counters equal the
// corresponding Result.Stats fields.
type Metrics struct {
	counters map[string]*atomic.Int64  // fixed at construction
	hists    map[string]*atomic.Uint64 // observations of a timed span

	opsBegun sync.Map // op name -> *atomic.Int64
	opsDone  sync.Map
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{counters: map[string]*atomic.Int64{}, hists: map[string]*atomic.Uint64{}}
	for _, name := range []string{
		"masort_runs_total", "masort_merge_steps_total", "masort_splits_total",
		"masort_combines_total", "masort_combine_aborts_total",
		"masort_suspensions_total", "masort_resumes_total",
		"masort_store_reads_total", "masort_store_writes_total",
		"masort_store_read_bytes_total", "masort_store_write_bytes_total",
	} {
		m.counters[name] = new(atomic.Int64)
	}
	for _, name := range []string{"masort_op_seconds", "masort_store_read_seconds", "masort_store_write_seconds"} {
		m.hists[name] = new(atomic.Uint64)
	}
	return m
}

func (m *Metrics) add(name string, delta int64) { m.counters[name].Add(delta) }

func (m *Metrics) observe(name string) { m.hists[name].Add(1) }

func labeled(sm *sync.Map, op string) *atomic.Int64 {
	if op == "" {
		op = "unknown"
	}
	if v, ok := sm.Load(op); ok {
		return v.(*atomic.Int64)
	}
	v, _ := sm.LoadOrStore(op, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// Emit implements Tracer.
func (m *Metrics) Emit(e Event) {
	switch e.Kind {
	case KindOpBegin:
		labeled(&m.opsBegun, e.Name).Add(1)
	case KindOpEnd:
		labeled(&m.opsDone, e.Name).Add(1)
		m.observe("masort_op_seconds")
	case KindRun:
		m.add("masort_runs_total", 1)
	case KindStepEnd:
		m.add("masort_merge_steps_total", 1)
	case KindSplit:
		m.add("masort_splits_total", 1)
	case KindCombineEnd:
		m.add("masort_combines_total", 1)
	case KindCombineAbort:
		m.add("masort_combine_aborts_total", 1)
	case KindSuspend:
		m.add("masort_suspensions_total", 1)
	case KindResume:
		m.add("masort_resumes_total", 1)
	case KindStoreRead:
		m.add("masort_store_reads_total", 1)
		m.add("masort_store_read_bytes_total", e.Bytes)
		m.observe("masort_store_read_seconds")
	case KindStoreWrite:
		m.add("masort_store_writes_total", 1)
		m.add("masort_store_write_bytes_total", e.Bytes)
		m.observe("masort_store_write_seconds")
	}
}

// Counter returns the current value of a counter by its full metric name
// (0 for unknown names).
func (m *Metrics) Counter(name string) int64 {
	if ct := m.counters[name]; ct != nil {
		return ct.Load()
	}
	return 0
}

// HistogramCount returns the number of observations of a timed span by name
// (0 for unknown names).
func (m *Metrics) HistogramCount(name string) uint64 {
	if h := m.hists[name]; h != nil {
		return h.Load()
	}
	return 0
}

// Ops returns how many operators of the given kind began and completed.
func (m *Metrics) Ops(op string) (begun, done int64) {
	return labeled(&m.opsBegun, op).Load(), labeled(&m.opsDone, op).Load()
}
