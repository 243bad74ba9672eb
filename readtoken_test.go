package masort

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/faultinject"
)

// A pagedStore read token is a request that whoever reaches it first
// executes (see pageToken). These tests pin the token's life cycle on all
// three disk-backed stores, and the rule that decides who runs a read: the
// waiter on a fast device, a goroutine started at issue on a slow one.

type tokenStore struct {
	RunStore
	ps    *pagedStore
	close func() error
}

// makeSlow marks every disk as one whose reads are worth a goroutine, as a
// history of slow fetches would.
func (s tokenStore) makeSlow() {
	for i := range s.ps.disks {
		s.ps.disks[i].fetchNanos.Store(int64(time.Second))
	}
}

func (s tokenStore) readsRun() (inline, dispatched int64) {
	return s.ps.inlineReads.Load(), s.ps.dispatchedReads.Load()
}

var tokenBackends = []struct {
	name string
	open func(t *testing.T, cfg *StoreConfig) tokenStore
}{
	{"file", func(t *testing.T, cfg *StoreConfig) tokenStore {
		s, err := cfg.File(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return tokenStore{s, s.pagedStore, s.Close}
	}},
	{"striped", func(t *testing.T, cfg *StoreConfig) tokenStore {
		s, err := cfg.Striped(t.TempDir(), t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return tokenStore{s, s.pagedStore, s.Close}
	}},
	{"mmap", func(t *testing.T, cfg *StoreConfig) tokenStore {
		s, err := cfg.Mmap(t.TempDir())
		if errors.Is(err, ErrMmapUnsupported) {
			t.Skip("mmap not supported on this platform")
		}
		if err != nil {
			t.Fatal(err)
		}
		return tokenStore{s, s.pagedStore, s.Close}
	}},
}

// forPagedBackends runs fn on each disk-backed store, built from a fresh
// mkcfg(), and closes the store afterwards unless fn did.
func forPagedBackends(t *testing.T, mkcfg func() *StoreConfig, fn func(t *testing.T, s tokenStore)) {
	for _, be := range tokenBackends {
		t.Run(be.name, func(t *testing.T) {
			s := be.open(t, mkcfg())
			t.Cleanup(func() { _ = s.close() })
			fn(t, s)
		})
	}
}

// forTokenBackends is forPagedBackends with the given read hook and retry
// policy.
func forTokenBackends(t *testing.T, afterRead func(off int64, b []byte) error, retry RetryPolicy, fn func(t *testing.T, s tokenStore)) {
	forPagedBackends(t, func() *StoreConfig {
		return NewStoreConfig().WithRetry(retry).WithFaults(hookFuncs{afterRead: afterRead})
	}, fn)
}

func eightPages() []Page {
	pages := make([]Page, 8)
	for i := range pages {
		pages[i] = testPage(Key(10 * i))
	}
	return pages
}

// returnsPromptly fails the test if fn has not returned within the grace
// period.
func returnsPromptly(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return: it waits for something nobody is running", what)
	}
}

// TestAbandonedReadTokensCostNothing: tokens issued and never waited for
// make no fetch, start no goroutine and hold up neither Free nor Close; a
// Wait that comes after the Free fails without touching the removed file.
func TestAbandonedReadTokensCostNothing(t *testing.T) {
	var fetches atomic.Int64
	forTokenBackends(t, func(int64, []byte) error { fetches.Add(1); return nil }, RetryPolicy{}, func(t *testing.T, s tokenStore) {
		fetches.Store(0)
		base := runtime.NumGoroutine()
		id := writePages(t, s, eightPages()...)
		kept := writePages(t, s, eightPages()...) // left for Close to tear down
		var toks []PageToken
		for _, run := range []RunID{id, kept} {
			for p := range 8 {
				toks = append(toks, s.ReadAsync(run, p))
			}
		}
		returnsPromptly(t, "Free with abandoned tokens", func() error { return s.Free(id) })
		for _, tok := range toks[:8] {
			if pg, err := tok.Wait(); pg != nil || err == nil || !strings.Contains(err.Error(), "freed run") {
				t.Fatalf("Wait after Free = %v, %v; want the freed-run error", pg, err)
			}
		}
		returnsPromptly(t, "Close with abandoned tokens", s.close)
		for _, tok := range toks[8:] {
			if pg, err := tok.Wait(); pg != nil || err == nil {
				t.Fatalf("Wait after Close = %v, %v; want an error", pg, err)
			}
		}
		waitGoroutines(t, base)
		if n := fetches.Load(); n != 0 {
			t.Errorf("%d fetches were made for tokens whose run was gone before anybody waited", n)
		}
		if _, dispatched := s.readsRun(); dispatched != 0 {
			t.Errorf("%d reads were dispatched on a store that has never seen a slow fetch", dispatched)
		}
	})
}

// TestFreeWaitsOnlyForRunningReads: a read that a reader goroutine is
// running holds Free up until it is done — the file must outlive the fetch
// — and no goroutine outlives Free.
func TestFreeWaitsOnlyForRunningReads(t *testing.T) {
	var gate atomic.Pointer[chan struct{}]
	var entered atomic.Int64
	forTokenBackends(t, func(int64, []byte) error {
		entered.Add(1)
		if g := gate.Load(); g != nil {
			<-*g
		}
		return nil
	}, RetryPolicy{}, func(t *testing.T, s tokenStore) {
		g := make(chan struct{})
		gate.Store(&g)
		entered.Store(0)
		base := runtime.NumGoroutine()
		id := writePages(t, s, eightPages()...)
		s.makeSlow()
		running := s.ReadAsync(id, 0) // dispatched: blocks in the hook
		for entered.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		freed := make(chan error, 1)
		go func() { freed <- s.Free(id) }()
		select {
		case err := <-freed:
			t.Fatalf("Free returned (%v) while a read of the run was in its fetch", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(g)
		if err := <-freed; err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
		if pg, err := running.Wait(); err != nil || pg[0].Key != 0 {
			t.Fatalf("the read that was running when Free came = %v, %v", pg, err)
		}
		if inline, dispatched := s.readsRun(); inline != 0 || dispatched != 1 {
			t.Errorf("reads run inline/dispatched = %d/%d, want 0/1", inline, dispatched)
		}
	})
}

// TestTwoWaitersOneToken: the first Wait runs the read, a second one that
// arrives meanwhile sleeps on the token's completion channel — made only
// then — and both get the page.
func TestTwoWaitersOneToken(t *testing.T) {
	var gate atomic.Pointer[chan struct{}]
	forTokenBackends(t, func(int64, []byte) error {
		if g := gate.Load(); g != nil {
			<-*g
		}
		return nil
	}, RetryPolicy{}, func(t *testing.T, s tokenStore) {
		id := writePages(t, s, eightPages()...)
		for _, slow := range []bool{false, true} {
			g := make(chan struct{})
			gate.Store(&g)
			if slow {
				s.makeSlow()
			}
			tok := s.ReadAsync(id, 3).(*pageToken)
			var wg sync.WaitGroup
			var pages [2]Page
			var errs [2]error
			for i := range pages {
				wg.Add(1)
				go func() {
					defer wg.Done()
					pages[i], errs[i] = tok.Wait()
				}()
			}
			// The read is held in its fetch; wait until somebody sleeps on it.
			for {
				tok.mu.Lock()
				parked := tok.done != nil
				tok.mu.Unlock()
				if parked {
					break
				}
				time.Sleep(time.Millisecond)
			}
			close(g)
			wg.Wait()
			for i := range pages {
				if errs[i] != nil || len(pages[i]) != 2 || pages[i][0].Key != 30 || &pages[i][0] != &pages[0][0] {
					t.Fatalf("slow=%v: waiter %d got %v, %v", slow, i, pages[i], errs[i])
				}
			}
			if pg, err := tok.Wait(); err != nil || &pg[0] != &pages[0][0] {
				t.Fatalf("slow=%v: a third Wait, after completion, got %v, %v", slow, pg, err)
			}
		}
		if inline, dispatched := s.readsRun(); inline != 1 || dispatched != 1 {
			t.Errorf("reads run inline/dispatched = %d/%d, want 1/1: each token is run once", inline, dispatched)
		}
	})
}

// TestReleaseOutsideATokensLifeIsNoOp: Release and ReleaseRecords give back
// a page Wait has delivered, once. Before the Wait, a second time, and after
// a read that failed there is nothing to give back and they do nothing — no
// read is run, cancelled or disturbed, and the free list does not move.
func TestReleaseOutsideATokensLifeIsNoOp(t *testing.T) {
	var failing atomic.Bool
	var fetches atomic.Int64
	forTokenBackends(t, func(int64, []byte) error {
		fetches.Add(1)
		if failing.Load() {
			return faultinject.Permanent("dead sector")
		}
		return nil
	}, RetryPolicy{}, func(t *testing.T, s tokenStore) {
		failing.Store(false)
		fetches.Store(0)
		id := writePages(t, s, eightPages()...)
		lists := func() [2]int {
			s.ps.frames.mu.Lock()
			defer s.ps.frames.mu.Unlock()
			return [2]int{len(s.ps.frames.recs), len(s.ps.frames.bufs)}
		}
		release := func(tok PageToken) {
			tok.(interface{ Release() }).Release()
			tok.(interface{ ReleaseRecords() }).ReleaseRecords()
		}

		// Before Wait, twice.
		tok := s.ReadAsync(id, 1)
		release(tok)
		release(tok)
		if fetches.Load() != 0 || lists() != [2]int{} {
			t.Fatalf("releasing an unread token made %d fetches and left %v on the free list", fetches.Load(), lists())
		}
		pg, err := tok.Wait()
		if err != nil || pg[0].Key != 10 {
			t.Fatalf("Wait after an early release = %v, %v", pg, err)
		}

		// ReleaseRecords: the array comes back, the bytes do not, and what
		// the reader copied out stays good while the array is decoded over.
		held := pg[1]
		tok.(interface{ ReleaseRecords() }).ReleaseRecords()
		if got := lists(); got != [2]int{1, 0} {
			t.Fatalf("free list after ReleaseRecords = %v (record arrays, buffers), want [1 0]", got)
		}
		release(tok) // second time, either kind
		if got := lists(); got != [2]int{1, 0} {
			t.Fatalf("free list after releasing a released token = %v", got)
		}
		if pg, err := tok.Wait(); pg != nil || err != nil {
			t.Fatalf("a released token still yields %v, %v", pg, err)
		}
		next := s.ReadAsync(id, 2)
		pg2, err := next.Wait()
		if err != nil || &pg2[0] != &pg[0] {
			t.Fatalf("the next read did not decode into the array given back: %v, %v", pg2, err)
		}
		if held.Key != 11 || string(held.Payload) != "ijklmnop" {
			t.Fatalf("a Record held across ReleaseRecords and the next read now reads {%d %q}", held.Key, held.Payload)
		}

		// After a failed read.
		failing.Store(true)
		bad := s.ReadAsync(id, 4)
		if pg, err := bad.Wait(); pg != nil || !errors.Is(err, ErrStoreFailed) {
			t.Fatalf("failed read = %v, %v", pg, err)
		}
		before := lists()
		release(bad)
		release(bad)
		if got := lists(); got != before {
			t.Fatalf("releasing a failed token moved the free list from %v to %v", before, got)
		}
		if pg, err := bad.Wait(); pg != nil || !errors.Is(err, ErrStoreFailed) {
			t.Fatalf("failed read, waited again after release = %v, %v", pg, err)
		}
	})
}

// TestRetriesCountTheSameInlineAndDispatched: one read path — a transient
// fetch error is retried per the policy and a checksum mismatch re-read
// exactly once, with the same attempts, Retries and errors whether the
// waiter ran the read or a reader goroutine did.
func TestRetriesCountTheSameInlineAndDispatched(t *testing.T) {
	var script atomic.Pointer[[]string] // one entry per attempt: "", "transient", "rot"
	var attempts atomic.Int64
	forTokenBackends(t, func(_ int64, b []byte) error {
		n := int(attempts.Add(1)) - 1
		sc := *script.Load()
		switch sc[min(n, len(sc)-1)] {
		case "transient":
			return faultinject.Transient("bus reset")
		case "rot":
			b[len(b)-1] ^= 0x40
		}
		return nil
	}, RetryPolicy{MaxAttempts: 3}, func(t *testing.T, s tokenStore) {
		script.Store(&[]string{""})
		id := writePages(t, s, eightPages()...)
		for _, slow := range []bool{false, true} {
			if slow {
				s.makeSlow()
			}
			read := func(page int, sc ...string) (PageToken, Page, error) {
				script.Store(&sc)
				attempts.Store(0)
				tok := s.ReadAsync(id, page)
				pg, err := tok.Wait()
				return tok, pg, err
			}
			tok, pg, err := read(5, "transient", "rot", "")
			if err != nil || pg[0].Key != 50 || attempts.Load() != 3 || tok.(retrier).Retries() != 2 {
				t.Fatalf("slow=%v: healed read = %v, %v after %d attempts, %d retries; want 3 and 2",
					slow, pg, err, attempts.Load(), tok.(retrier).Retries())
			}
			tok, pg, err = read(6, "rot")
			if pg != nil || !errors.Is(err, ErrCorruptPage) || attempts.Load() != 2 || tok.(retrier).Retries() != 1 {
				t.Fatalf("slow=%v: rotten page = %v, %v after %d attempts, %d retries; want ErrCorruptPage, 2 and 1",
					slow, pg, err, attempts.Load(), tok.(retrier).Retries())
			}
			tok, pg, err = read(7, "transient")
			if pg != nil || !errors.Is(err, ErrStoreFailed) || attempts.Load() != 3 || tok.(retrier).Retries() != 2 {
				t.Fatalf("slow=%v: dead page = %v, %v after %d attempts, %d retries; want ErrStoreFailed, 3 and 2",
					slow, pg, err, attempts.Load(), tok.(retrier).Retries())
			}
		}
		if inline, dispatched := s.readsRun(); inline != 3 || dispatched != 3 {
			t.Errorf("reads run inline/dispatched = %d/%d, want 3/3", inline, dispatched)
		}
	})
}

// slowReads is a read hook that takes latency per fetch and keeps the books
// the overlap tests need.
type slowReads struct {
	latency time.Duration
	spent   atomic.Int64 // nanoseconds slept, measured
	now     atomic.Int64 // fetches inside the hook
	peak    atomic.Int64
}

func (h *slowReads) afterRead(int64, []byte) error {
	n := h.now.Add(1)
	for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
	}
	start := time.Now()
	time.Sleep(h.latency)
	h.spent.Add(int64(time.Since(start)))
	h.now.Add(-1)
	return nil
}

// TestSlowDeviceReadAheadOverlapsConsumer: on a device that takes 2 ms a
// read, the output iterator's read-ahead is handed to a goroutine at issue —
// every read but the first, which found a disk with no history — so a
// consumer that spends as long on each page finishes in about the larger of
// the two totals, not their sum.
func TestSlowDeviceReadAheadOverlapsConsumer(t *testing.T) {
	const pages = 40
	h := &slowReads{latency: 2 * time.Millisecond}
	fs, err := NewStoreConfig().WithFaults(hookFuncs{afterRead: h.afterRead}).File(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, _, err := WriteRun(fs, NewSliceIterator(sortedRecords(pages*8, 0, 1)), 8)
	if err != nil {
		t.Fatal(err)
	}
	it := &runIterator{store: fs, id: id, pages: pages}
	var consumed time.Duration
	start := time.Now()
	for n := 0; ; n++ {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if n%8 == 0 { // once a page
			s := time.Now()
			time.Sleep(h.latency)
			consumed += time.Since(s)
		}
	}
	elapsed, fetching := time.Since(start), time.Duration(h.spent.Load())
	t.Logf("%d pages: %v fetching, %v consuming, %v elapsed", pages, fetching, consumed, elapsed)
	if inline, dispatched := fs.inlineReads.Load(), fs.dispatchedReads.Load(); inline != 1 || dispatched != pages-1 {
		t.Errorf("reads run inline/dispatched = %d/%d, want 1/%d", inline, dispatched, pages-1)
	}
	if sum := fetching + consumed; elapsed > sum*3/4 {
		t.Errorf("draining took %v of the %v that fetching and consuming take one after the other: the read-ahead does not overlap", elapsed, sum)
	}
}

// TestSlowDeviceBatchReadsOverlap is batchLoad's pattern — one read issued
// for each of 16 runs, then all of them waited for — on the same device:
// the reads run DefaultReadConcurrency at a time, so the batch takes about
// two latencies, not sixteen.
func TestSlowDeviceBatchReadsOverlap(t *testing.T) {
	const runs = 16
	h := &slowReads{latency: 2 * time.Millisecond}
	fs, err := NewStoreConfig().WithFaults(hookFuncs{afterRead: h.afterRead}).File(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids []RunID
	for i := range runs {
		ids = append(ids, writePages(t, fs, testPage(Key(100*i))))
	}
	if _, err := fs.ReadAsync(ids[0], 0).Wait(); err != nil { // the disk's first sample
		t.Fatal(err)
	}
	h.spent.Store(0)
	h.peak.Store(0)

	start := time.Now()
	toks := make([]PageToken, runs)
	for i, id := range ids {
		toks[i] = fs.ReadAsync(id, 0)
	}
	for i, tok := range toks {
		if pg, err := tok.Wait(); err != nil || pg[0].Key != Key(100*i) {
			t.Fatalf("run %d: %v, %v", i, pg, err)
		}
	}
	elapsed, fetching := time.Since(start), time.Duration(h.spent.Load())
	t.Logf("%d reads: %v fetching in all, %v elapsed, %d at once at the peak", runs, fetching, elapsed, h.peak.Load())
	if inline, dispatched := fs.inlineReads.Load(), fs.dispatchedReads.Load(); inline != 1 || dispatched != runs {
		t.Errorf("reads run inline/dispatched = %d/%d, want 1/%d", inline, dispatched, runs)
	}
	if p := h.peak.Load(); p < 2 || p > DefaultReadConcurrency {
		t.Errorf("%d reads were in their fetch at once, want within [2, %d]", p, DefaultReadConcurrency)
	}
	// Two rounds of eight would be fetching/8; half of fetching is the
	// generous line between overlapped and serial.
	if elapsed > fetching/2 {
		t.Errorf("the batch took %v, its fetches %v in all: they ran one after the other", elapsed, fetching)
	}
}

// countReads counts the reads issued to a FileStore, handing its tokens
// through untouched.
type countReads struct {
	*FileStore
	issued atomic.Int64
}

func (s *countReads) ReadAsync(id RunID, page int) PageToken {
	s.issued.Add(1)
	return s.FileStore.ReadAsync(id, page)
}

// TestFastDeviceDispatchesNothing: a sort and the drain of its result on a
// FileStore whose fetches take a microsecond run every read on the goroutine
// that waits for it, and each read issued exactly once. (The store's clock is
// pinned: on a real one a reader descheduled in the middle of a fetch is a
// slow fetch as far as anybody can tell, and the handful of reads after it
// are rightly dispatched — on a loaded box that is a few reads in a hundred.)
func TestFastDeviceDispatchesNothing(t *testing.T) {
	in := randomRecords(6000, 11, 16)
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ticks atomic.Int64
	epoch := time.Now()
	fs.now = func() time.Time { return epoch.Add(time.Duration(ticks.Add(1)) * time.Microsecond) }
	store := &countReads{FileStore: fs}
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithPageRecords(32), WithBudget(NewBudget(8)), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, err := Drain(res.Iterator())
	if err != nil || len(out) != len(in) {
		t.Fatalf("drained %d of %d records: %v", len(out), len(in), err)
	}
	inline, dispatched := fs.inlineReads.Load(), fs.dispatchedReads.Load()
	issued, want := store.issued.Load(), int64(res.Stats.MergePagesRead+res.Pages)
	if issued != want || inline != issued || dispatched != 0 || ticks.Load() != 2*issued {
		t.Fatalf("%d reads issued (merge + drain = %d): %d run inline, %d dispatched, %d fetches timed; want all inline, each fetched once",
			issued, want, inline, dispatched, ticks.Load()/2)
	}
}
