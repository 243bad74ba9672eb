package masort

import (
	"iter"

	"github.com/memadapt/masort/trace"
)

// Result is the outcome of a finished Sort, Join, GroupBy or Merge: a
// handle to the stored run of output records plus execution statistics. It
// implements io.Closer; Close releases the run's storage, after which the
// result must not be iterated.
type Result struct {
	store RunStore
	// runs holds the output in key order: one run on one worker, up to
	// Workers key-partitioned segments (WithWorkers) whose concatenation is
	// the sorted output.
	// Iterator chains them transparently; Close frees them all.
	runs []RunID

	// Pages and Tuples size the output run.
	Pages  int
	Tuples int

	// Stats reports what the operator did (runs, merge steps, splits,
	// combines, suspensions, phase durations, ...).
	Stats Stats

	// Join carries join-specific statistics (per-relation run counts,
	// result tuples); nil for results of Sort, GroupBy and Merge.
	Join *JoinStats

	// Pool reports how shared-pool arbitration treated the operator
	// (admission wait, grants, blocking waits); nil unless the operator
	// ran under WithPool.
	Pool *PoolStats

	// Counters tallies CPU-relevant operations.
	Counters Counters

	// Events is the operator's flight recorder — the last N trace events,
	// oldest first via Events.Events() — when the operator ran with
	// WithEventLog; nil otherwise.
	Events *trace.Ring

	freed bool
}

// Iterator streams the output records in sorted order, keeping one page of
// read-ahead issued to the store. A closed result yields ErrFreed.
//
// Records are served from the store's pages: they stay valid as long as
// they are referenced, but callers retaining Record.Payload across many
// records should copy it — a retained payload pins its page's payloads, all
// of them (the page's payload arena on FileStore and StripedStore, nothing
// but the payload bytes; the run's mapping on MmapStore, zero-copy; see
// README.md, "Buffer ownership and zero-copy"). The iterator gives each
// page's record array — never the payloads — back to a store that takes it
// (ReleaseRecords) as it moves on.
func (r *Result) Iterator() Iterator {
	if r.freed {
		return FuncIterator(func() (Record, bool, error) {
			return Record{}, false, ErrFreed
		})
	}
	if len(r.runs) == 1 {
		return &runIterator{store: r.store, id: r.runs[0], pages: r.Pages}
	}
	return &segmentsIterator{store: r.store, runs: r.runs}
}

// segmentsIterator chains the per-segment run iterators of a parallel
// result in key order.
type segmentsIterator struct {
	store RunStore
	runs  []RunID
	cur   *runIterator
}

func (s *segmentsIterator) Next() (Record, bool, error) {
	for {
		if s.cur == nil {
			if len(s.runs) == 0 {
				return Record{}, false, nil
			}
			id := s.runs[0]
			s.runs = s.runs[1:]
			s.cur = &runIterator{store: s.store, id: id, pages: s.store.Pages(id)}
		}
		rec, ok, err := s.cur.Next()
		if err != nil || ok {
			return rec, ok, err
		}
		s.cur = nil
	}
}

// All returns the output records as a range-over-func sequence:
//
//	for rec, err := range res.All() {
//		if err != nil { ... }
//		...
//	}
//
// The sequence yields at most one non-nil error, as its final pair.
func (r *Result) All() iter.Seq2[Record, error] {
	return All(r.Iterator())
}

// Close releases the result's storage (every segment of a parallel result).
// The Result must not be iterated afterwards; a second Close returns
// ErrFreed.
func (r *Result) Close() error {
	if r.freed {
		return ErrFreed
	}
	r.freed = true
	var first error
	for _, id := range r.runs {
		if err := r.store.Free(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}
