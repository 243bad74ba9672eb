// Package masort is a memory-adaptive external sorting and sort-merge join
// library — a production-grade implementation of the algorithms from
// "Memory-Adaptive External Sorting" (Pang, Carey, Livny; VLDB 1993).
//
// An external sort runs in two phases: a split phase that cuts the input
// into sorted runs using an in-memory method (Quicksort or replacement
// selection, optionally with block writes), and a merge phase that combines
// the runs. What sets this library apart is that the memory available to a
// sort may be changed while it runs — shrunk when the host system needs
// pages for higher-priority work and grown when memory frees up — and the
// sort adapts:
//
//   - in the split phase, by writing tuples out and releasing pages (or
//     absorbing new ones into its workspace);
//   - in the merge phase, by suspension, MRU buffer paging, or dynamic
//     splitting — splitting an executing merge step into sub-steps that fit
//     the shrunken memory and combining steps again as memory returns.
//
// The memory contract is a *Budget measured in logical pages; Grow and
// Shrink may be called concurrently from any goroutine and take effect at
// the sort's adaptation points. (Because Go is garbage-collected, pages are
// logical accounting units, not RSS guarantees.) A Budget is its owner's
// handle: it sets the target and reads what the operator holds against it.
// Acquiring, yielding and waiting are the engine's side of the protocol, and
// its waits end when the operation's context is canceled.
//
// Quick start:
//
//	budget := masort.NewBudget(64) // 64 pages
//	res, err := masort.Sort(ctx, masort.NewSliceIterator(records),
//		masort.WithBudget(budget),
//	)
//	if err != nil { ... }
//	defer res.Close()
//	for rec, err := range res.All() {
//		if err != nil { ... }
//		...
//	}
//
// While Sort runs, budget.Shrink(16) or budget.Grow(32) adjusts its memory,
// and canceling ctx aborts it at the next adaptation point with all run
// storage released. The default configuration is the paper's
// recommendation: replacement selection with 6-page block writes, optimized
// merging, dynamic splitting ("repl6,opt,split").
//
// Every operator returns before its last step: the step's output is the
// operator's output, so the Result keeps the step's input runs and
// Result.Iterator runs it under the caller's Next instead of the engine
// writing the output to the store only for the caller to read it back.
// Sort and Merge hold their last merge step (a step of one input when there
// was one run), GroupBy folds its groups off its sort's last step inside
// Next, and a Join reads the output run its joint step wrote through a step
// of one input. Each iterator is a user of its own of the same budget — an
// operator that reads it on that budget shares the budget with it — and
// holds up to the step's fan-in in pages (one per input: records go to
// Next by value, with no output page) while it runs the step, adapts to its
// share and observes ctx as every step does; the step runs afresh for every
// Iterator, and Stats Pages and Tuples are final once a drain has completed
// (see Result).
//
// Sort-merge joins (Join), grouped aggregation (GroupBy) and run
// compaction (Merge) run on the same adaptive machinery and compose through
// the shared *Budget.
//
// # The shared pool
//
// One *Budget is also the process-wide pool — the wall-clock counterpart of
// the paper's buffer manager, arbitrating its pages among every operator
// started with WithBudget(b) plus the application's own reservations
// (Budget.Reserve / Budget.Release, the paper's competing memory
// requests). Each of N running operators is entitled to an equal share of
// what reservations have not taken, never below the 3-page floor;
// entitlements shift as operators come and go and operators adapt at
// their usual adaptation points. The Budget's AdmissionPolicy says who
// stands behind the target: AdmitAll (the default) admits every operator
// and raises the target to a floor per operator when it must, while
// QueueWhenFull and RejectWhenFull admit an operator only when one more
// floor fits, queueing or failing it otherwise. The operator's side of
// the arbitration — admission wait, grants, blocking waits — is reported
// in Result.Pool. See the README's "shared pool" section for the full
// ownership and fairness contract, and examples/concurrentpool for the
// multiprogramming scenario end to end.
//
// # Run generation
//
// The default split method is replacement selection with 6-page block
// writes, the paper's recommendation. Because the split loop pops a block
// and then reads the pages it freed, the engine selects in batches: the
// records read are copied into a burst and sorted by (key, payload)
// (bucket scatter on the key's top bits, a comparison sort inside a
// bucket); before the next pop the burst is cut at the current run's last
// record into two mini-runs, one per run tag; and each pop replays one
// root path of a loser tree over the mini-run heads. The tags are the ones
// classic replacement selection assigns and the order (run, key, payload)
// is total, so runs and I/O are identical to the classic binary heap's —
// only Counters.Compares and the CPU time drop.
//
// The same loser tree serves run generation, the merge and the join: the
// merge and each side of the join select among their runs' one-record
// workspaces through it (a run that runs dry turns its leaf idle; runs a
// combine absorbs enter at idle leaves; nothing is allocated after
// construction). Counters.Compares charges ⌈log₂ leaves⌉ per replayed
// path, plus one per match when a leaf enters or the tree is rebuilt. The
// simulator keeps the classic counted heaps for both jobs, whose
// comparison counts its CPU model charges, so the reproduced tables do not
// depend on the real engine's choice of structure.
//
// # Parallel execution
//
// WithWorkers(n) sets the worker count a sort reports in Stats.Workers (0
// resolves to GOMAXPROCS, the default is 1, any n >= 2 resolves to two),
// and nothing else: every sort runs on the caller's goroutine and starts
// none. Replacement selection keeps one heap over the operator's whole
// target, so its runs are about twice the memory long at every n — the
// paper's run length; dividing the target among per-worker heaps halves
// the runs and adds a merge pass. One merge follows on the same goroutine,
// with its last step held for the Result; every event fires there (or on
// the goroutine draining the held step). Merge, which generates no runs,
// reports Stats.Workers = 1.
//
// Buffer ownership: each page buffer has a single owner from fill to
// Append hand-off, runs are written by the operator's goroutine and read by
// its one merge. Completed runs may still be read by several goroutines
// concurrently (the RunStore contract all backends pass storetest with).
// The simulator never sets workers, so its tables stay byte-identical.
//
// # Choosing a run store
//
// Sorted runs live in a RunStore, chosen with WithStore and built by the
// NewStoreConfig builder, which applies one set of knobs (retry policy,
// fault hooks) to whichever backend it finishes with:
//
//	store, err := masort.NewStoreConfig().
//		WithRetry(masort.RetryPolicy{MaxAttempts: 3}).
//		File("/disk1/tmp", "/disk2/tmp")
//
// Three backends cover the spectrum:
//
//   - MemStore (NewMemStore, the default): runs held in memory, each Append
//     batch in the smaller of two forms — by reference, a key and a pointer
//     to the caller's payload a record, sharing the payload bytes for as
//     long as the run lives (payloads longer than 8 bytes), or the
//     checksummed frames a file holds, one chunk a batch, decoded in place
//     on read (8 bytes or less; also payloads an operator made itself, and
//     views of the store's own chunks). Fastest; run data is bounded by RAM. Tests
//     and small sorts.
//   - FileStore (StoreConfig.File): checksummed frames, buffered writes
//     where Append is called, bounded read concurrency, retry and rollback
//     on write failure. The workhorse store. Over N directories — one per
//     physical device — its pages are striped round-robin and indexed once
//     every device has its share of a batch, so one run's bandwidth is the
//     sum of its devices': the real-engine twin of the paper's Disks
//     experiment.
//   - MmapStore (StoreConfig.Mmap): file-backed runs read zero-copy
//     through a memory mapping; falls back with ErrMmapUnsupported where
//     mmap is unavailable. Read-heavy merges on large page caches.
//
// A disk-backed store's memory tier is the kernel's page cache: Append is
// a copy into it, and the kernel evicts it, so it costs the process no
// heap and no budget has to see it.
//
// Every backend honors the same RunStore contract (see RunStore) and
// passes the storetest conformance suite; the retries a store spent are
// counted in Stats.StoreRetries, and a give-up is the ErrStoreFailed or
// ErrCorruptPage the operation returns.
//
// Store architecture: MemStore, FileStore and MmapStore are one
// implementation — an unexported paged-run layer — over thin devices. The
// layer owns the checksummed page frame, the per-run page index — which
// describes written pages only: Append writes where it is called and
// indexes afterwards, cutting a failed batch back off the file — the
// bounded read path with its single re-read on corruption,
// the retry taxonomy, FaultHooks, the raw-buffer pool,
// the free list of read frames and the token types. A read token is a request that whoever reaches it first
// executes: the first Wait runs the read on its own goroutine, unless the
// device's recent fetches were slow enough (tens of microseconds) for
// ReadAsync to have started a reader goroutine for it — so nothing is
// spawned, signalled or woken per page on a device the page cache hides,
// read-ahead and batched reads still overlap a slow one, and at most eight
// reads run per device either way. A device owns one run's bytes and four
// methods: positional write, fetch an extent, truncate, close-and-remove.
// The file
// device fetches with ReadAt into a pooled raw buffer that is back in the
// pool before the read returns — the page is decoded out of it by copy, so
// no encoded byte ever leaves the store. The frame is columnar (the keys at
// a fixed stride, then the payloads as one column), so that decode is one
// key loop and one copy a page, after a checksum verified before a record
// is sized or written; the mmap device returns a slice of a mapping that
// stays valid until the store closes, and the memory device a slice of the
// chunk an Append copied the batch into, which nothing writes again and the
// collector alone frees (a MemStore batch whose encoding would outweigh its
// reference form — its keys and payload pointers — is held so instead and
// writes nothing); striping is the N > 1 case of the same index (page
// i on device i mod N), so File(dir) is simply N = 1. Every run file is
// created exclusively under a name of its own, so stores may share a
// directory. A new backend is a new device plus a StoreConfig terminal,
// verified by running storetest.Run on it.
//
// # Buffer ownership
//
// The engine allocates near zero in steady state, which makes buffer
// ownership part of the contract. Slices given to NewSliceIterator are
// read in place (do not mutate them until the operator returns). Pages
// passed to RunStore.Append belong to the store only until the returned
// token completes. Pages returned by RunStore.ReadAsync are read-only.
// FileStore decodes a page by copy: its payloads, which the frame already
// stores back to back, are copied in one piece to an
// arena of exactly their total size — the keys, lengths and checksum that
// framed them on disk stay in the store's pooled raw buffer — and every
// Record.Payload of the page is a slice of that
// arena, which lives exactly as long as records referencing it. MmapStore
// and MemStore are the zero-copy paths: there payloads alias the run's
// mapping, valid until the store closes, or what the MemStore keeps — the
// chunk of a batch's encoded bytes, whole, as long as one payload of it is
// referenced, or the caller's own payload bytes, for a batch it holds by
// reference — each capped at its length, so an append to one cannot reach
// the caller's next bytes. Either way callers retaining payloads from many pages should
// copy them (append([]byte(nil), rec.Payload...)), and must never mutate
// them.
//
// A store's read tokens may additionally offer Release(), an optional
// method found by type assertion: it ends the token's life and gives the
// page's memory back to the store for its next read (the disk-backed stores
// and MemStore take the token itself back too, with either release, so a
// handle used after its release does nothing). The merge releases
// every input page it has consumed once the Append of the output block
// holding its last record has returned, which is how merges on the
// disk-backed stores read without allocating (Stats.MergePagesReleased
// counts them); dropped pages never release, and the join's final phase
// gives back record arrays only (its pending key group may hold payloads). A
// store offering Release promises in return that Append has copied every
// payload byte by the time it returns and keeps none — not only no page
// slices. MemStore hands out what it keeps — payloads that are views of a
// stored chunk, which later reads of the page decode again, or the
// caller's own payloads, for a batch held by reference — so its tokens
// never offer it: they offer ReleaseRecords alone, and the merge gives
// such a page back that way, at once.
//
// ReleaseRecords() is the smaller, independent offer: the store gets the
// page's record array back and nothing else. Result.Iterator, which hands
// out Record values and cannot know who keeps them, calls it on each page
// it leaves — the input pages of the last step it runs; the bytes the payloads alias are never reused, so records
// stay valid while referenced and a retained Payload pins its page's
// payload arena — the payload bytes, not the page's encoding.
// See README.md ("Buffer ownership and zero-copy") for the full rules.
//
// See README.md for a tour of the repository, and cmd/masim for the full
// reproduction of the paper's evaluation on a simulated DBMS.
package masort
