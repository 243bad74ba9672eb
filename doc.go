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
// logical accounting units, not RSS guarantees.)
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
// Arbitrary record types flow through the engine via the generic facade:
// define a Codec[T] (key extraction plus payload encode/decode) and use
// SortT or SortSliceT. Sort-merge joins (Join), grouped aggregation
// (GroupBy) and run compaction (Merge) run on the same adaptive machinery
// and compose through the shared *Budget.
//
// # The shared pool
//
// Where a *Budget is one operator's private contract, a *Pool is a
// process-wide shared memory region — the wall-clock counterpart of the
// paper's buffer manager, arbitrating a fixed total of pages among every
// operator started with WithPool(p) plus the application's own
// reservations (Pool.Reserve / Pool.Release, the paper's competing
// memory requests). Each of N admitted operators is entitled to an equal
// share of what reservations have not taken, never below a per-operator
// floor; admission is controlled (queue or reject) so the floors always
// remain coverable; entitlements shift as operators come and go and
// operators adapt at their usual adaptation points. The operator's side
// of the arbitration — admission wait, grants, blocking waits — is
// reported in Result.Pool. See the README's "shared pool" section for
// the full ownership and fairness contract, and examples/concurrentpool
// for the multiprogramming scenario end to end.
//
// # Run generation
//
// The default split method is replacement selection with 6-page block
// writes, the paper's recommendation. Because the split loop pops a block
// and then pushes a block, the engine selects in batches: a pushed record
// is only staged; the first pop after a burst seals the staged records
// into one sorted mini-run (bucket scatter on the key's top bits, a
// comparison sort inside a bucket); and each pop replays one root path of
// a loser tree over the mini-run heads. Run tags are assigned at push time
// exactly as in classic replacement selection and the order (run, key,
// payload) is total, so runs, fences and I/O are identical to the classic
// binary heap's — only Counters.Compares and the CPU time drop.
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
// Worker count is a parameter of the one phase driver, not a second engine:
// an operator is a split phase and a merge phase, each run on n workers,
// and WithWorkers(n) sets n (0 resolves to GOMAXPROCS; the default is 1).
// At n = 1 a phase runs inline on the caller's goroutine against the
// operator's own budget — no goroutine is started. At n > 1 the same
// phase body runs on n goroutines, and the output is value-identical at
// every n. The worker model is
//
//   - split phase: workers consume the shared input in page-sized bites
//     and each produces sorted runs from its share of the budget;
//   - merge phase: every run the engine writes — split output or merge
//     intermediate — records each page's first key as a fence (8 bytes a
//     page); the key space is cut at those fence keys and each
//     worker merges one disjoint key range into its own output segment,
//     so a Result holds up to Workers key-ordered segments that
//     Iterator/All chain transparently. With nothing to cut by (one
//     worker, a tiny input) the one partition is the runs themselves;
//     pre-existing runs handed to Merge carry no fences, so their groups
//     are first merged in parallel and one final merge combines them;
//   - memory: the shares come from the operation's own handle on its
//     *Budget (or *Pool) — the crew is not a second arbiter. The handle
//     divides its live entitlement into deterministic equal shares,
//     remainder to the lowest ranks, under the lock that serves Resize
//     and Reserve, so every Shrink propagates to every worker at its
//     next output-page boundary; when the target cannot sustain the
//     whole crew the highest ranks are parked — a zero share from the
//     same arbiter, woken by the same condition — which the merge answers
//     with the ordinary suspension sequence (flush, drop, yield, wait,
//     resume — counted in Stats.Suspensions, reported as EvSuspend /
//     EvResume with the worker's id) whatever the adaptation strategy.
//     Suspension, MRU paging, dynamic splitting and cancellation run
//     per worker, unchanged.
//
// Buffer ownership is unchanged by the worker count: each page buffer has
// a single owning worker from fill to Append hand-off, runs are written by
// exactly one goroutine, and completed runs may be read by several
// goroutines concurrently (the RunStore contract all backends pass
// storetest with). Result.Stats.Workers reports the worker count that
// actually ran. The simulator never sets workers, and its buffer manager
// could not divide itself among a crew if it did: its sorts take the
// inline path, so its tables stay byte-identical.
//
// # Choosing a run store
//
// Sorted runs live in a RunStore, chosen with WithStore and built by the
// NewStoreConfig builder, which applies one set of knobs (retry policy,
// fault hooks, tracing) to whichever backend it finishes with:
//
//	store, err := masort.NewStoreConfig().
//		WithRetry(masort.RetryPolicy{MaxAttempts: 3}).
//		Striped("/disk1/tmp", "/disk2/tmp")
//
// Five backends cover the spectrum:
//
//   - MemStore (NewMemStore, the default): runs held in memory. Fastest;
//     run data is bounded by RAM. Tests and small sorts.
//   - FileStore (StoreConfig.File): one directory, checksummed frames,
//     buffered writes where Append is called, bounded read concurrency,
//     retry and rollback on write failure. The workhorse single-disk
//     store.
//   - StripedStore (StoreConfig.Striped): pages striped round-robin over
//     N directories — one per physical device — and indexed once every
//     device has its share of a batch, so one run's bandwidth is the sum
//     of its devices'. The real-engine twin of the paper's Disks
//     experiment.
//   - MmapStore (StoreConfig.Mmap): file-backed runs read zero-copy
//     through a memory mapping; falls back with ErrMmapUnsupported where
//     mmap is unavailable. Read-heavy merges on large page caches.
//   - TieredStore (StoreConfig.Tiered): a bounded memory tier over any
//     backing store; whole runs demote to the backing store when the tier
//     overflows (LRU), hot pages promote back on read. Keeps small sorts
//     entirely in memory while big ones spill gracefully.
//
// Every backend honors the same RunStore contract (see RunStore), passes
// the storetest conformance suite, and reports store_demote /
// store_promote / store_retry events through the trace seam.
//
// Store architecture: FileStore, StripedStore and MmapStore are one
// implementation — an unexported paged-run layer — over thin devices. The
// layer owns the checksummed page frame, the per-run page index — which
// describes written pages only: Append writes where it is called and
// indexes afterwards, cutting a failed batch back off the file — the
// bounded read path with its single re-read on corruption,
// the retry taxonomy, FaultHooks, store trace events, the raw-buffer pool,
// the free list of read frames and the token types. A read token is a request that whoever reaches it first
// executes: the first Wait runs the read on its own goroutine, unless the
// device's recent fetches were slow enough (tens of microseconds) for
// ReadAsync to have started a reader goroutine for it — so nothing is
// spawned, signalled or woken per page on a device the page cache hides,
// read-ahead and batched reads still overlap a slow one, and
// DefaultReadConcurrency bounds the reads running per device either way. A
// device owns one run file and four methods:
// positional write, fetch an extent, truncate, close-and-remove. The file
// device fetches with ReadAt into a pooled raw buffer that is back in the
// pool before the read returns — the page is decoded out of it by copy, so
// no encoded byte ever leaves the store. The frame is columnar (the keys at
// a fixed stride, then the payloads as one column), so that decode is one
// key loop and one copy a page, after a checksum verified before a record
// is sized or written; the mmap device
// returns a slice of a mapping that stays valid until the store closes;
// striping is the N > 1 case of the same index (page i on device i mod
// N), so File(dir) is simply N = 1. A new backend is a new device plus a
// StoreConfig terminal, verified by running storetest.Run on it.
//
// # Buffer ownership
//
// The engine allocates near zero in steady state, which makes buffer
// ownership part of the contract. Slices given to NewSliceIterator are
// read in place (do not mutate them until the operator returns). Pages
// passed to RunStore.Append belong to the store only until the returned
// token completes. Pages returned by RunStore.ReadAsync are read-only.
// FileStore and StripedStore decode a page by copy: its payloads, which
// the frame already stores back to back, are copied in one piece to an
// arena of exactly their total size — the keys, lengths and checksum that
// framed them on disk stay in the store's pooled raw buffer — and every
// Record.Payload of the page is a slice of that
// arena, which lives exactly as long as records referencing it. MmapStore
// is the zero-copy path: there payloads alias the run's mapping, valid
// until the store closes. Either way callers retaining payloads from many
// pages should copy them (append([]byte(nil), rec.Payload...)), and must
// never mutate them.
//
// A store's read tokens may additionally offer Release(), an optional
// method found by type assertion: it ends the token's life and gives the
// page's memory back to the store for its next read. The merge releases
// every input page it has consumed once the output holding its records is
// durable, which is how merges on the disk-backed stores read without
// allocating (Stats.MergePagesReleased counts them); dropped pages and the
// join's final phase never release. A store offering Release promises in
// return that Append keeps no payload bytes — not only no page slices —
// past its token; MemStore keeps payload aliases (it copies shallowly) and
// therefore must never offer it.
//
// ReleaseRecords() is the smaller, independent offer: the store gets the
// page's record array back and nothing else. Result.Iterator, which hands
// out Record values and cannot know who keeps them, calls it on each page
// it leaves; the bytes the payloads alias are never reused, so records
// stay valid while referenced and a retained Payload pins its page's
// payload arena — the payload bytes, not the page's encoding.
// See README.md ("Buffer ownership and zero-copy") for the full rules.
//
// See README.md for a tour of the repository, and cmd/masim for the full
// reproduction of the paper's evaluation on a simulated DBMS.
package masort
