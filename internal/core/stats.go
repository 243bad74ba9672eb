package core

import "time"

// SortStats reports what one external sort did — the quantities the paper's
// tables and figures are built from.
type SortStats struct {
	// TuplesIn and PagesIn measure the input consumed by the split phase.
	TuplesIn int
	PagesIn  int

	// Runs is the number of sorted runs the split phase produced
	// (Table 6 / Table 8).
	Runs int

	// MergeSteps counts completed merge steps, including the final one.
	// Under a held last step (Env.StreamLast) that final step is there
	// whatever merged before it: over one run — an input that fit in
	// memory, a Merge of one run, a join's output — it is a step of one
	// input, counted like any other, here, in MergePagesRead and in its
	// step events (fan-in 1).
	MergeSteps int

	// SplitDuration and MergeDuration are the phase times; Response is the
	// total (the paper's performance metric).
	SplitDuration time.Duration
	MergeDuration time.Duration
	Response      time.Duration

	// RunPagesWritten counts pages written into runs during the split phase;
	// MergePagesRead / MergePagesWritten count merge-phase traffic.
	RunPagesWritten   int
	MergePagesRead    int
	MergePagesWritten int

	// ExtraMergeReads counts re-reads caused by adaptation: MRU paging
	// faults and buffer reloads after dynamic-splitting step switches.
	ExtraMergeReads int

	// MergePagesReleased counts the merge-read pages whose memory went back
	// to the store for reuse (PageReleaser) instead of to the collector,
	// counted as Release is called.
	// Against MergePagesRead it tells whether the store participates: close
	// to all of them on the disk-backed stores at a steady budget, fewer
	// under adaptation (dropped pages are not released), none on stores
	// whose read tokens offer no Release (MemStore, whose encoded pages come
	// back as record arrays instead, uncounted; custom).
	MergePagesReleased int

	// Splits / Combines / Suspensions count adaptation actions taken during
	// the merge phase.
	Splits      int
	Combines    int
	Suspensions int

	// MaxGranted tracks the high-water mark of pages held.
	MaxGranted int

	// Workers is filled by the host (the root package reports the count its
	// WithWorkers option resolved to); the engine never reads or sets it.
	Workers int

	// Store I/O aggregates, filled by the host: completed read requests and
	// append batches against the run store, their encoded byte totals, and
	// their summed issue-to-completion latencies. The real engine measures
	// these at the store boundary when tracing is on (they stay zero
	// otherwise); the simulator derives the counts from its disk model via
	// FillModeledIO.
	StoreReads   int
	StoreWrites  int
	BytesRead    int64
	BytesWritten int64
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// StoreRetries counts store I/O attempts that failed transiently and
	// were retried (reads and writes combined, including corruption
	// re-reads). Like the other store aggregates it is measured at the
	// store boundary and stays zero when tracing is off or the store has no
	// retry policy.
	StoreRetries int

	// EventPanics counts observer callbacks (event hooks, tracers) that
	// panicked during the operation and were recovered — nonzero means the
	// observability layer misbehaved, never the sort.
	EventPanics int
}

// FillModeledIO derives the store I/O aggregates from the page counters for
// engines that model I/O instead of measuring it (the simulator): one
// request per page, pageBytes bytes each. Latencies are left untouched —
// the modeled clock already accounts for them in the phase durations.
func (s *SortStats) FillModeledIO(pageBytes int) {
	s.StoreReads = s.MergePagesRead
	s.StoreWrites = s.RunPagesWritten + s.MergePagesWritten
	s.BytesRead = int64(pageBytes) * int64(s.MergePagesRead)
	s.BytesWritten = int64(pageBytes) * int64(s.RunPagesWritten+s.MergePagesWritten)
}

// JoinStats extends SortStats for sort-merge joins.
type JoinStats struct {
	SortStats
	// LeftRuns/RightRuns are the runs produced per relation.
	LeftRuns  int
	RightRuns int
	// ResultTuples counts emitted join matches.
	ResultTuples int
}
