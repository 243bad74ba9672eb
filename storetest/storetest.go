// Package storetest is the exported conformance suite for masort.RunStore
// implementations. It machine-checks the parts of the store contract the
// engine relies on but the type system cannot express: Append-token
// durability, buffer ownership, lifecycle errors, free-with-reads-in-flight
// safety, nothing held per freed run, corruption surfacing and terminal
// write-failure surfacing.
//
// Every built-in backend (MemStore, FileStore over one directory or
// several, MmapStore) passes this suite; run it against a custom store with:
//
//	func TestMyStoreConformance(t *testing.T) {
//		storetest.Run(t, storetest.Config{
//			New: func(tb testing.TB) masort.RunStore {
//				s := mystore.New(...)
//				tb.Cleanup(func() { s.Close() })
//				return s
//			},
//		})
//	}
//
// The fault subtests (corruption and write-failure surfacing, transient
// retry healing) only run when Config.NewFaulty is set; wire the given
// hooks into the store's physical I/O path exactly as
// masort.StoreConfig.WithFaults would.
//
// The built-in stores are one paged-run layer over thin byte-extent
// devices, so a new device inside the module gets framing, retries, fault
// hooks and this suite's fault subtests for free: give StoreConfig a
// terminal for it and pass that terminal's stores to Run (with NewFaulty
// built through WithFaults), as storeconformance_test.go does for the
// built-ins.
package storetest

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/memadapt/masort"
)

// Config tells the suite how to build the store under test.
type Config struct {
	// New builds a fresh store for one subtest. The constructor owns
	// teardown: register Close (or equivalent) with tb.Cleanup.
	New func(tb testing.TB) masort.RunStore

	// NewFaulty, when set, builds a fresh store whose physical reads and
	// writes are routed through hooks (as masort.StoreConfig.WithFaults
	// does), with checksummed page framing and a retry policy of at least
	// three attempts. Leave nil for stores without a physical I/O seam
	// (e.g. one that keeps pages as copied records); the fault subtests are
	// skipped.
	NewFaulty func(tb testing.TB, hooks masort.FaultHooks) masort.RunStore
}

// Run exercises the store against the RunStore contract.
func Run(t *testing.T, cfg Config) {
	if cfg.New == nil {
		t.Fatal("storetest: Config.New is required")
	}
	t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, cfg) })
	t.Run("BufferOwnership", func(t *testing.T) { testBufferOwnership(t, cfg) })
	t.Run("Lifecycle", func(t *testing.T) { testLifecycle(t, cfg) })
	t.Run("EmptyAppend", func(t *testing.T) { testEmptyAppend(t, cfg) })
	t.Run("FreeWithReadsInFlight", func(t *testing.T) { testFreeInFlight(t, cfg) })
	t.Run("ConcurrentRuns", func(t *testing.T) { testConcurrentRuns(t, cfg) })
	t.Run("ConcurrentReadersOneRun", func(t *testing.T) { testConcurrentReaders(t, cfg) })
	t.Run("AbortLeakFree", func(t *testing.T) { testAbortLeakFree(t, cfg) })
	t.Run("FreedRunsCostNothing", func(t *testing.T) { testFreedRunsCostNothing(t, cfg) })
	if cfg.NewFaulty == nil {
		t.Run("Faults", func(t *testing.T) {
			t.Skip("storetest: Config.NewFaulty not set; fault subtests skipped")
		})
		return
	}
	t.Run("CorruptionSurfaces", func(t *testing.T) { testCorruption(t, cfg) })
	t.Run("WriteFailureSurfaces", func(t *testing.T) { testWriteFailure(t, cfg) })
	t.Run("TransientWriteHeals", func(t *testing.T) { testTransientHeals(t, cfg) })
}

// mkPages builds deterministic pages: run-unique keys and payloads so a
// cross-run or cross-page mixup is caught by content, not just by count.
func mkPages(seed, npages, perPage int) []masort.Page {
	pages := make([]masort.Page, npages)
	for p := range pages {
		pg := make(masort.Page, perPage)
		for i := range pg {
			k := uint64(seed)<<32 | uint64(p)<<16 | uint64(i)
			pg[i] = masort.Record{Key: k, Payload: []byte(fmt.Sprintf("s%d-p%d-r%d", seed, p, i))}
		}
		pages[p] = pg
	}
	return pages
}

// clonePages deep-copies pages (record slices and payload bytes) so the
// suite can compare reads against a snapshot the store never saw.
func clonePages(pages []masort.Page) []masort.Page {
	out := make([]masort.Page, len(pages))
	for i, pg := range pages {
		cp := make(masort.Page, len(pg))
		for j, rec := range pg {
			pl := make([]byte, len(rec.Payload))
			copy(pl, rec.Payload)
			cp[j] = masort.Record{Key: rec.Key, Payload: pl}
		}
		out[i] = cp
	}
	return out
}

// checkPage compares one read page against the golden copy.
func checkPage(t *testing.T, got, want masort.Page, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("%s: record %d = {%d %q}, want {%d %q}", what, i,
				got[i].Key, got[i].Payload, want[i].Key, want[i].Payload)
		}
	}
}

// appendWait appends and waits for durability.
func appendWait(t *testing.T, s masort.RunStore, id masort.RunID, pages []masort.Page) {
	t.Helper()
	tok, err := s.Append(id, pages)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatalf("Append token: %v", err)
	}
}

// testRoundTrip writes several runs in interleaved multi-page batches and
// reads every page back — in order, out of order, and repeatedly — checking
// content and Pages accounting. Pages appended before a token completes
// must be readable once it does (the durability half of the contract).
func testRoundTrip(t *testing.T, cfg Config) {
	s := cfg.New(t)
	const runs, batches, perBatch = 3, 4, 2
	ids := make([]masort.RunID, runs)
	golden := make([][]masort.Page, runs)
	for r := range ids {
		id, err := s.Create()
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ids[r] = id
	}
	// Interleave appends across runs so striped bookkeeping sees
	// concurrent run growth, not one run at a time.
	for b := 0; b < batches; b++ {
		for r, id := range ids {
			batch := mkPages(r*batches+b, perBatch, 3+r)
			golden[r] = append(golden[r], clonePages(batch)...)
			appendWait(t, s, id, batch)
		}
	}
	for r, id := range ids {
		if got, want := s.Pages(id), batches*perBatch; got != want {
			t.Fatalf("run %d: Pages = %d, want %d", r, got, want)
		}
		// Read back to front: a store must serve random access, not just the
		// sequential pattern the merge engine happens to use.
		for p := s.Pages(id) - 1; p >= 0; p-- {
			pg, err := s.ReadAsync(id, p).Wait()
			if err != nil {
				t.Fatalf("run %d page %d: %v", r, p, err)
			}
			checkPage(t, pg, golden[r][p], fmt.Sprintf("run %d page %d", r, p))
		}
		// And once more forward: reads must be repeatable.
		pg, err := s.ReadAsync(id, 0).Wait()
		if err != nil {
			t.Fatalf("run %d re-read: %v", r, err)
		}
		checkPage(t, pg, golden[r][0], fmt.Sprintf("run %d re-read", r))
	}
	for _, id := range ids {
		if err := s.Free(id); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
}

// testBufferOwnership checks the caller's half of the zero-copy bargain:
// once the Append token completes, the caller may recycle the page slices —
// so the suite clobbers every record of the appended slices and then reads
// the data back intact. (Payload bytes are NOT clobbered: the contract
// makes them immutable and stores may share them.)
func testBufferOwnership(t *testing.T, cfg Config) {
	s := cfg.New(t)
	id, err := s.Create()
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	batch := mkPages(7, 3, 4)
	golden := clonePages(batch)
	appendWait(t, s, id, batch)
	for _, pg := range batch {
		for i := range pg {
			pg[i] = masort.Record{Key: ^uint64(0), Payload: []byte("clobbered")}
		}
	}
	for p := range golden {
		pg, err := s.ReadAsync(id, p).Wait()
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		checkPage(t, pg, golden[p], fmt.Sprintf("page %d after clobber", p))
	}
	// Read pages are store-owned and read-only; they must stay valid at
	// least until the run is freed — hold one across another append.
	held, err := s.ReadAsync(id, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	appendWait(t, s, id, mkPages(8, 1, 2))
	checkPage(t, held, golden[0], "held page after later append")
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
}

// testLifecycle checks the error half of the contract: operations on
// unknown, freed and out-of-range targets must fail, not panic or return
// stale data.
func testLifecycle(t *testing.T, cfg Config) {
	s := cfg.New(t)
	const nowhere masort.RunID = 987654
	if _, err := s.Append(nowhere, mkPages(0, 1, 1)); err == nil {
		t.Error("append to unknown run succeeded")
	}
	if _, err := s.ReadAsync(nowhere, 0).Wait(); err == nil {
		t.Error("read of unknown run succeeded")
	}
	if err := s.Free(nowhere); err == nil {
		t.Error("free of unknown run succeeded")
	}
	if n := s.Pages(nowhere); n != 0 {
		t.Errorf("Pages of unknown run = %d, want 0", n)
	}
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	appendWait(t, s, id, mkPages(1, 2, 2))
	if _, err := s.ReadAsync(id, -1).Wait(); err == nil {
		t.Error("read of page -1 succeeded")
	}
	if _, err := s.ReadAsync(id, 2).Wait(); err == nil {
		t.Error("read past end succeeded")
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(id); err == nil {
		t.Error("double free succeeded")
	}
	if _, err := s.ReadAsync(id, 0).Wait(); err == nil {
		t.Error("read of freed run succeeded")
	}
	if _, err := s.Append(id, mkPages(2, 1, 1)); err == nil {
		t.Error("append to freed run succeeded")
	}
}

// testEmptyAppend checks the degenerate batches the engine actually sends:
// a nil batch, an empty batch, and a batch containing an empty page.
func testEmptyAppend(t *testing.T, cfg Config) {
	s := cfg.New(t)
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]masort.Page{nil, {}} {
		tok, err := s.Append(id, batch)
		if err != nil {
			t.Fatalf("empty append: %v", err)
		}
		if err := tok.Wait(); err != nil {
			t.Fatalf("empty append token: %v", err)
		}
	}
	if n := s.Pages(id); n != 0 {
		t.Fatalf("Pages after empty appends = %d, want 0", n)
	}
	appendWait(t, s, id, []masort.Page{{}, {{Key: 5}}})
	if n := s.Pages(id); n != 2 {
		t.Fatalf("Pages = %d, want 2 (empty page counts)", n)
	}
	pg, err := s.ReadAsync(id, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(pg) != 0 {
		t.Fatalf("empty page came back with %d records", len(pg))
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
}

// testFreeInFlight frees a run while reads on it are still in flight. The
// store may fail those reads or complete them, but it must not panic,
// deadlock, or return wrong data.
func testFreeInFlight(t *testing.T, cfg Config) {
	s := cfg.New(t)
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	batch := mkPages(3, 8, 4)
	golden := clonePages(batch)
	appendWait(t, s, id, batch)
	toks := make([]masort.PageToken, len(golden))
	for p := range toks {
		toks[p] = s.ReadAsync(id, p)
	}
	if err := s.Free(id); err != nil {
		t.Fatalf("Free with reads in flight: %v", err)
	}
	for p, tok := range toks {
		pg, err := tok.Wait()
		if err != nil {
			continue // failing a read raced with Free is allowed
		}
		checkPage(t, pg, golden[p], fmt.Sprintf("in-flight page %d", p))
	}
}

// testConcurrentRuns drives several runs from separate goroutines — the
// store's documented concurrency model (one run per goroutine, many runs at
// once).
// testConcurrentReaders checks the read side of the concurrency contract: a
// run that is no longer being appended to may be read by several goroutines
// at once, each scanning its own (overlapping) page range.
func testConcurrentReaders(t *testing.T, cfg Config) {
	s := cfg.New(t)
	const npages = 24
	id, err := s.Create()
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	batch := mkPages(7, npages, 4)
	golden := clonePages(batch)
	appendWait(t, s, id, batch)

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Overlapping ranges with different phases, several passes, and
			// one page of read-ahead in flight like the engine keeps.
			lo, hi := w*(npages/readers)/2, npages
			for pass := 0; pass < 3; pass++ {
				for p := lo; p < hi; p++ {
					tok := s.ReadAsync(id, p)
					var ahead masort.PageToken
					if p+1 < hi {
						ahead = s.ReadAsync(id, p+1)
					}
					pg, err := tok.Wait()
					if err != nil {
						select {
						case errs <- fmt.Errorf("reader %d pass %d page %d: %v", w, pass, p, err):
						default:
						}
						return
					}
					if len(pg) != len(golden[p]) || pg[0].Key != golden[p][0].Key ||
						string(pg[0].Payload) != string(golden[p][0].Payload) {
						select {
						case errs <- fmt.Errorf("reader %d pass %d page %d: wrong content", w, pass, p):
						default:
						}
						return
					}
					if ahead != nil {
						if _, err := ahead.Wait(); err != nil {
							select {
							case errs <- fmt.Errorf("reader %d pass %d read-ahead %d: %v", w, pass, p+1, err):
							default:
							}
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Free(id); err != nil {
		t.Fatalf("Free: %v", err)
	}
}

func testConcurrentRuns(t *testing.T, cfg Config) {
	s := cfg.New(t)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf(format, args...):
				default:
				}
			}
			id, err := s.Create()
			if err != nil {
				fail("worker %d Create: %v", w, err)
				return
			}
			golden := []masort.Page(nil)
			for b := 0; b < 5; b++ {
				batch := mkPages(100+w*10+b, 2, 3)
				golden = append(golden, clonePages(batch)...)
				tok, err := s.Append(id, batch)
				if err != nil {
					fail("worker %d Append: %v", w, err)
					return
				}
				if err := tok.Wait(); err != nil {
					fail("worker %d token: %v", w, err)
					return
				}
			}
			for p := range golden {
				pg, err := s.ReadAsync(id, p).Wait()
				if err != nil {
					fail("worker %d page %d: %v", w, p, err)
					return
				}
				if len(pg) != len(golden[p]) || pg[0].Key != golden[p][0].Key {
					fail("worker %d page %d: wrong content", w, p)
					return
				}
			}
			if err := s.Free(id); err != nil {
				fail("worker %d Free: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// testAbortLeakFree models an aborted operator: runs are freed with appends
// barely landed and tokens never waited. A store exposing Live() must end
// at zero live runs.
func testAbortLeakFree(t *testing.T, cfg Config) {
	s := cfg.New(t)
	for i := 0; i < 3; i++ {
		id, err := s.Create()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(id, mkPages(i, 2, 2)); err != nil {
			t.Fatal(err)
		}
		// No token Wait — the abort path drops runs mid-write.
		if err := s.Free(id); err != nil {
			t.Fatalf("abort Free: %v", err)
		}
	}
	if lv, ok := s.(interface{ Live() int }); ok {
		if n := lv.Live(); n != 0 {
			t.Fatalf("Live() = %d after freeing every run, want 0", n)
		}
	}
}

// testFreedRunsCostNothing creates and frees two thousand runs: a store
// shared by a long-lived process sees any number of them, so what it holds
// must follow the runs that are live, not the runs it has ever seen — while
// a freed run stays freed, whatever the store remembers it by. A map entry
// kept per freed run costs 16 bytes and more, so the live heap may grow by
// 4 bytes a run at most; two thousand runs put that bound at 8 000 bytes,
// above the few hundred bytes a GC'd heap moves by on its own and far below
// the 32 000 and more of a per-run entry.
func testFreedRunsCostNothing(t *testing.T, cfg Config) {
	const (
		runs        = 2000
		bytesPerRun = 4
	)
	s := cfg.New(t)
	ids := make([]masort.RunID, 0, runs)
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			id, err := s.Create()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Free(id); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	liveHeap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties what sync.Pools kept through the first
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	cycle(100) // whatever the store builds on first use is no part of the bill
	ids = ids[:0]
	before := liveHeap()
	cycle(runs)
	grown := liveHeap() - before
	if grown > runs*bytesPerRun {
		t.Errorf("live heap grew by %d bytes over %d created-and-freed runs (%d a run): the store keeps something per freed run",
			grown, runs, grown/runs)
	}
	for _, id := range []masort.RunID{ids[0], ids[runs/2], ids[runs-1]} {
		if err := s.Free(id); err == nil {
			t.Errorf("double free of run %d succeeded", id)
		}
		if _, err := s.ReadAsync(id, 0).Wait(); err == nil {
			t.Errorf("read of freed run %d succeeded", id)
		}
		if _, err := s.Append(id, mkPages(0, 1, 1)); err == nil {
			t.Errorf("append to freed run %d succeeded", id)
		}
	}
}

// ---- fault subtests ----

// hooks adapts funcs to masort.FaultHooks.
type hooks struct {
	beforeWrite func(off int64, b []byte) (int, error)
	afterRead   func(off int64, b []byte) error
}

func (h hooks) BeforeWrite(off int64, b []byte) (int, error) {
	if h.beforeWrite == nil {
		return -1, nil
	}
	return h.beforeWrite(off, b)
}

func (h hooks) AfterRead(off int64, b []byte) error {
	if h.afterRead == nil {
		return nil
	}
	return h.afterRead(off, b)
}

// faultErr is an injected I/O error carrying the retry taxonomy's
// Temporary() signal.
type faultErr struct {
	msg       string
	temporary bool
}

func (e faultErr) Error() string   { return e.msg }
func (e faultErr) Temporary() bool { return e.temporary }

// testCorruption flips bits in every physical read and requires the store
// to surface masort.ErrCorruptPage — never silently deliver mangled
// records. Requires checksummed framing in the store under test.
func testCorruption(t *testing.T, cfg Config) {
	s := cfg.NewFaulty(t, hooks{
		afterRead: func(off int64, b []byte) error {
			if len(b) > 0 {
				b[len(b)/2] ^= 0x40
			}
			return nil
		},
	})
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	appendWait(t, s, id, mkPages(11, 2, 3))
	_, err = s.ReadAsync(id, 0).Wait()
	if err == nil {
		t.Fatal("read of a corrupted page succeeded")
	}
	if !errors.Is(err, masort.ErrCorruptPage) {
		t.Fatalf("corruption error = %v, want ErrCorruptPage in the chain", err)
	}
	if err := s.Free(id); err != nil {
		t.Fatalf("Free of a corrupt run: %v", err)
	}
}

// testWriteFailure injects a permanent write fault and requires it to
// surface as masort.ErrStoreFailed — on the Append call, its token, or a
// subsequent operation on the run (asynchronous and write-back stores may
// learn of the failure late), and never as silently dropped pages.
func testWriteFailure(t *testing.T, cfg Config) {
	s := cfg.NewFaulty(t, hooks{
		beforeWrite: func(off int64, b []byte) (int, error) {
			return -1, faultErr{msg: "injected: device failed", temporary: false}
		},
	})
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	surfaced := func(err error) bool { return errors.Is(err, masort.ErrStoreFailed) }
	tok, err := s.Append(id, mkPages(13, 2, 3))
	if err == nil {
		err = tok.Wait()
	}
	if err == nil {
		// Some backends surface the failure on the next touch of the run.
		if _, e := s.Append(id, mkPages(14, 1, 1)); e != nil {
			err = e
		} else if _, e := s.ReadAsync(id, 0).Wait(); e != nil {
			err = e
		}
	}
	if err == nil {
		t.Fatal("permanent write fault never surfaced")
	}
	if !surfaced(err) {
		t.Fatalf("write failure = %v, want ErrStoreFailed in the chain", err)
	}
	// A read must never return data the store cannot vouch for.
	if pg, e := s.ReadAsync(id, 0).Wait(); e == nil {
		checkPage(t, pg, clonePages(mkPages(13, 2, 3))[0], "read after write failure")
	}
	if err := s.Free(id); err != nil {
		t.Fatalf("Free of a broken run: %v", err)
	}
}

// testTransientHeals fails every distinct write offset exactly once with a
// Temporary() error; the store's retry layer (>= 3 attempts per the
// NewFaulty contract) must land the data anyway.
func testTransientHeals(t *testing.T, cfg Config) {
	var mu sync.Mutex
	failed := map[int64]bool{}
	var injected atomic.Int64
	s := cfg.NewFaulty(t, hooks{
		beforeWrite: func(off int64, b []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			if failed[off] {
				return -1, nil
			}
			failed[off] = true
			injected.Add(1)
			return -1, faultErr{msg: "injected: transient timeout", temporary: true}
		},
	})
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	batch := mkPages(17, 3, 4)
	golden := clonePages(batch)
	appendWait(t, s, id, batch)
	if injected.Load() == 0 {
		t.Fatal("fault hook never reached the write path")
	}
	for p := range golden {
		pg, err := s.ReadAsync(id, p).Wait()
		if err != nil {
			t.Fatalf("page %d after healed write: %v", p, err)
		}
		checkPage(t, pg, golden[p], fmt.Sprintf("page %d after healed write", p))
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
}
