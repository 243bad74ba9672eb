package masort

import (
	"bytes"
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/memadapt/masort/internal/pagecodec"
)

// sampleReads is a FileStore that samples the allocator and the free list of
// read frames as merge reads go by. It hands the store's own tokens through,
// so the engine still sees their Release.
type sampleReads struct {
	*FileStore
	from, to  int64 // TotalAlloc is sampled at these read counts
	reads     atomic.Int64
	allocFrom uint64
	allocTo   uint64
	maxFrames int // largest free list seen

	// schedule, when set, moves budget to schedule[i] at read every*(i+1):
	// the merge splits, combines and absorbs while it is being sampled.
	budget   *Budget
	every    int64
	schedule []int
}

func (s *sampleReads) ReadAsync(id RunID, page int) PageToken {
	n := s.reads.Add(1)
	switch n {
	case s.from:
		s.allocFrom = totalAlloc()
	case s.to:
		s.allocTo = totalAlloc()
	}
	if s.every > 0 && n%s.every == 0 && n/s.every <= int64(len(s.schedule)) {
		s.budget.Resize(s.schedule[n/s.every-1])
	}
	s.maxFrames = max(s.maxFrames, s.freeFrames())
	return s.FileStore.ReadAsync(id, page)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// threadsStarted counts the OS threads the runtime has started. A new one
// allocates about 5 KB of runtime structures (runtime.allocm), and the
// runtime starts one wherever it restarts the world with no idle thread to
// hand a processor to — after ReadMemStats' own stop or a GC's — which a
// loaded CPU makes likely: an allocation window that saw one counts bytes
// no code under test allocated.
func threadsStarted() int {
	n, _ := runtime.ThreadCreateProfile(nil)
	return n
}

func (s *pagedStore) freeFrames() int {
	s.frames.mu.Lock()
	defer s.frames.mu.Unlock()
	return max(len(s.frames.recs), len(s.frames.bufs))
}

// TestMergeReadsAllocateNothing is the allocation gate on the merge's read
// path: merging 80 runs on a FileStore — the sampled reads fall in a
// 40-way preliminary step that writes its output; the last step, which
// only a drain would run, never runs — a page read in steady state
// costs its 16-byte handle (the token itself comes back with the page, and
// the run's resident-page slots keep their array) plus what the page written
// for it costs the write side — 44 B in all (221 B when every read made a
// 144-byte token and a slot array, 439 B when besides every pool put boxed a
// slice header and every output page was an Append of its own), against
// 607 B when every read had a reader goroutine and a completion channel, and
// 4.9 KB at these 64-record pages (14.8 KB at the default 256) when every
// read allocated its record array and read buffer — and the free list stays
// within its constant. The raw buffers are on a list, not in a sync.Pool,
// so the bound holds under the race detector too.
func TestMergeReadsAllocateNothing(t *testing.T) {
	const pageRecords, budgetPages = 64, 41
	in := randomRecords(budgetPages*80*pageRecords, 7, 16) // 80 memory-sized runs
	for _, tc := range []struct {
		name     string
		every    int64
		schedule []int
		bound    float64 // bytes per sampled read; measured 44 and 298
	}{
		{name: "fixed", bound: 128},
		// sort_file_fluct's kind of traffic while the reads are sampled: a
		// split, a combine aborted by the next shrink, a second one that runs
		// to its absorb. Each rebuilds or re-enters the selection tree, which
		// must allocate nothing for it; the pages each of them drops are the
		// collector's by design (≈ 90 frames here, ≈ 0.3 KB a sampled read),
		// which is why the schedule is no busier than this.
		{name: "fluct", bound: 576, every: 100, schedule: []int{41, 41, 41, 33, 41, 37, 41, 29, 41}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := newFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			budget := NewBudget(budgetPages)
			store := &sampleReads{FileStore: fs, from: 400, to: 1400, budget: budget, every: tc.every, schedule: tc.schedule}
			switches := 0 // times the merge changed the run set under its selection tree
			res, err := Sort(context.Background(), NewSliceIterator(in),
				WithMethod(Quicksort), WithPageRecords(pageRecords), WithBudget(budget), WithStore(store),
				WithEvents(func(ev Event) {
					switch ev.Kind {
					case EvSplitStep, EvCombineStart, EvCombineAbort, EvCombineDone:
						switches++
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			st := res.Stats
			if st.Runs < 32 || int64(st.MergePagesRead) < store.to {
				t.Fatalf("want >= 32 runs and >= %d merge reads, got %d runs, %d reads", store.to, st.Runs, st.MergePagesRead)
			}
			perRead := float64(store.allocTo-store.allocFrom) / float64(store.to-store.from)
			t.Logf("%d runs, %d merge reads (%d released), %d splits/combines/aborts/absorbs, %.0f B allocated per read in steady state, free list peaked at %d frames",
				st.Runs, st.MergePagesRead, st.MergePagesReleased, switches, perRead, store.maxFrames)
			if perRead > tc.bound {
				t.Errorf("%.0f B allocated per merge page read in steady state, want <= %.0f", perRead, tc.bound)
			}
			if tc.schedule == nil && st.MergePagesReleased != st.MergePagesRead {
				t.Errorf("released %d of %d merge pages at a fixed budget", st.MergePagesReleased, st.MergePagesRead)
			}
			if tc.schedule != nil && switches < 5 {
				t.Errorf("%d splits, combines, aborts and absorbs: the schedule did not make the merge adapt", switches)
			}
			if got := max(store.maxFrames, fs.freeFrames()); got > maxFreeFrames || fs.freeFrames() == 0 {
				t.Errorf("free list peaked at %d frames and ends with %d, want within (0, %d]", got, fs.freeFrames(), maxFreeFrames)
			}
		})
	}
}

// TestDrainReturnsItsRecordArrays: the output iterator gives each page's
// record array back as it leaves the page, and the encoded bytes never left
// the store, so draining a run from a file-backed store — the last step of
// a Merge of that one run — allocates, per page,
// the arena holding its payloads — the caller's to keep — and the read
// token: the payload bytes plus a little, not the page's encoding (6.4 KB at
// this geometry, what a drained page cost while its payloads aliased the
// read buffer) and not the 8 KB record array on top.
func TestDrainReturnsItsRecordArrays(t *testing.T) {
	const pageRecords, pages, from, to, payload = 256, 400, 50, 350, 16
	forFileBackends(t, func(t *testing.T, fs tokenStore) {
		recs := randomRecords(pages*pageRecords, 3, payload)
		slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
		id, _, err := WriteRun(fs, NewSliceIterator(recs), pageRecords)
		if err != nil {
			t.Fatal(err)
		}
		var allocFrom, allocTo uint64
		var sum Key
		res, err := Merge(context.Background(), fs, []RunID{id}, WithPageRecords(pageRecords))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		it := res.Iterator()
		for n := 0; ; n++ {
			switch n {
			case from * pageRecords:
				allocFrom = totalAlloc()
			case to * pageRecords:
				allocTo = totalAlloc()
			}
			rec, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			sum += rec.Key + Key(rec.Payload[0])
		}
		perPage := float64(allocTo-allocFrom) / (to - from)
		t.Logf("%.0f B allocated per drained page of %d payload bytes, %d encoded (checksum of what was read: %d)",
			perPage, pageRecords*payload, pagecodec.EncodedSizeSum(recs[:pageRecords]), sum)
		if bound := float64(pageRecords*payload + 512); perPage > bound {
			t.Errorf("%.0f B allocated per drained page of %d payload bytes, want <= %.0f", perPage, pageRecords*payload, bound)
		}
		if fs.ps.freeFrames() == 0 {
			t.Error("the free list is empty after a drain: no record array came back")
		}
	})
}

// TestHeldDrainAllocatesOnlyPayloads: draining a 64-way held last step,
// holding every Record it hands out, allocates per page read the payload
// arena a FileStore decodes the page's payloads into — the caller's to keep;
// a MemStore shares the caller's payloads and has none — plus the read's
// 16-byte handle, and nothing else: the read token is recycled with its page
// and the run's resident-page slots with their array. (It was 208 B a page
// more: a fresh 144-byte token and a 48-byte slot array a read.)
func TestHeldDrainAllocatesOnlyPayloads(t *testing.T) {
	const runs, pages, pageRecords, payload = 64, 24, 64, 16
	const handle, stray, from, to = 16, 1024, 8 * runs, 20 * runs // sampled between these pages drained
	for _, be := range []struct {
		name  string
		arena float64 // payload bytes a page allocates on read
		open  func(t *testing.T) RunStore
	}{
		{"file", pageRecords * payload, func(t *testing.T) RunStore {
			s, err := newFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			// Every read inline, on the drain's goroutine: a read handed to
			// a goroutine decodes into its arena whenever it is scheduled,
			// inside the window or out of it, and a loaded CPU makes the
			// disk look slow enough to hand reads off.
			tokenStore{ps: s.pagedStore}.makeFast()
			return s
		}},
		{"mem", 0, func(*testing.T) RunStore { return NewMemStore() }},
	} {
		t.Run(be.name, func(t *testing.T) {
			// The reads run ahead of the records handed out, so the window's
			// edges may cut one more read than pages drained; and the runtime
			// allocates a little of its own now and then (stray).
			bound := ((be.arena+handle)*(to-from+1) + stray) / (to - from)
			for attempt := 1; ; attempt++ {
				perPage, threads := heldDrainWindow(t, be.open(t), runs, pages, pageRecords, payload, from, to)
				t.Logf("%.2f B allocated per page drained (payload arena %.0f B, handle %d B), %d OS threads started",
					perPage, be.arena, handle, threads)
				if threads == 0 {
					if perPage > bound {
						t.Errorf("%.2f B allocated per page drained, want <= %.2f: the payload arena and the handle", perPage, bound)
					}
					return
				}
				if attempt == 3 {
					t.Fatalf("the runtime started an OS thread inside each of %d windows", attempt)
				}
			}
		})
	}
}

// heldDrainWindow merges runs sorted runs of pages pages on store, drains
// the held step holding every record, and returns the bytes allocated per
// page drained between the from-th and the to-th page, with the OS threads
// the runtime started meanwhile.
func heldDrainWindow(t *testing.T, store RunStore, runs, pages, pageRecords, payload, from, to int) (float64, int) {
	var ids []RunID
	for i := range runs {
		recs := randomRecords(pages*pageRecords, uint64(100+i), payload)
		slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
		id, _, err := WriteRun(store, NewSliceIterator(recs), pageRecords)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	res, err := Merge(context.Background(), store, ids, WithPageRecords(pageRecords), WithBudget(NewBudget(runs+2)))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Stats.MergeSteps != 0 {
		t.Fatalf("%d merge steps ran before the drain: want the %d runs in the held step", res.Stats.MergeSteps, runs)
	}
	held := make([]Record, 0, runs*pages*pageRecords)
	var allocFrom, allocTo uint64
	var threadsFrom, threadsTo int
	it := res.Iterator()
	for {
		switch len(held) {
		case from * pageRecords:
			threadsFrom, allocFrom = threadsStarted(), totalAlloc()
		case to * pageRecords:
			allocTo, threadsTo = totalAlloc(), threadsStarted()
		}
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		held = append(held, rec)
	}
	if len(held) != runs*pages*pageRecords || !slices.IsSortedFunc(held, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) }) {
		t.Fatalf("drained %d records, want the %d sorted", len(held), runs*pages*pageRecords)
	}
	return float64(allocTo-allocFrom) / float64(to-from), threadsTo - threadsFrom
}

// forFileBackends runs fn on the stores that read into memory: a FileStore
// over one directory and over three ("striped"), without fault hooks.
func forFileBackends(t *testing.T, fn func(t *testing.T, s tokenStore)) {
	for _, be := range tokenBackends[:2] {
		t.Run(be.name, func(t *testing.T) {
			s := be.open(t, NewStoreConfig())
			t.Cleanup(func() { _ = s.close() })
			fn(t, s)
		})
	}
}

// TestRetainedPayloadsSurviveRawBufferReuse: a payload a reader keeps is the
// reader's, whatever the store reads and writes afterwards. Every payload of
// a run's first ten pages is held (the record arrays go back, as the output
// iterator gives them back) while 300 more pages are drained through the
// same raw buffers and a merge reads and writes on the same store; then the
// held payloads are compared with what was written, byte for byte.
func TestRetainedPayloadsSurviveRawBufferReuse(t *testing.T) {
	const pageRecords, pages, kept = 64, 310, 10
	forFileBackends(t, func(t *testing.T, fs tokenStore) {
		recs := randomRecords(pages*pageRecords, 11, 24)
		slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
		id, _, err := WriteRun(fs, NewSliceIterator(recs), pageRecords)
		if err != nil {
			t.Fatal(err)
		}
		var held [][]byte
		for page := range pages {
			tok := fs.ReadAsync(id, page)
			pg, err := tok.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if page < kept {
				for _, rec := range pg {
					held = append(held, rec.Payload)
				}
			}
			tok.(interface{ ReleaseRecords() }).ReleaseRecords()
		}
		var ids []RunID
		for i := range 8 {
			run := randomRecords(40*pageRecords, uint64(20+i), 24)
			slices.SortFunc(run, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
			rid, _, err := WriteRun(fs, NewSliceIterator(run), pageRecords)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, rid)
		}
		res, err := Merge(context.Background(), fs, ids, WithPageRecords(pageRecords), WithBudget(NewBudget(6)))
		if err != nil {
			t.Fatal(err)
		}
		if out, err := Drain(res.Iterator()); err != nil || len(out) != 8*40*pageRecords {
			t.Fatalf("merge on the same store returned %d records, %v", len(out), err)
		}
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
		for i, p := range held {
			if !bytes.Equal(p, recs[i].Payload) {
				t.Fatalf("payload of record %d, held since its page was read, now reads %x; written %x", i, p, recs[i].Payload)
			}
		}
	})
}

// TestFileReadNeverAliasesTheRawBuffer: the bytes a device fetched are the
// store's — a read hook sees them, a reader never does. The hook records
// every buffer it was shown; once Wait has returned, scribbling over all of
// them changes nothing the reader holds, on every disk-backed store (with
// hooks installed the mmap store's private copy is such a buffer too).
func TestFileReadNeverAliasesTheRawBuffer(t *testing.T) {
	var shown [][]byte
	forTokenBackends(t, func(_ int64, b []byte) error {
		shown = append(shown, b)
		return nil
	}, RetryPolicy{}, func(t *testing.T, s tokenStore) {
		shown = nil
		written := eightPages()
		id := writePages(t, s, written...)
		var read []Page
		for page := range written {
			pg, err := s.ReadAsync(id, page).Wait()
			if err != nil {
				t.Fatal(err)
			}
			read = append(read, pg)
		}
		if len(shown) != len(written) {
			t.Fatalf("the read hook saw %d buffers for %d reads", len(shown), len(written))
		}
		for _, b := range shown {
			for i := range b {
				b[i] = 0xEE
			}
		}
		for page, pg := range read {
			for i, rec := range pg {
				if want := written[page][i]; rec.Key != want.Key || !bytes.Equal(rec.Payload, want.Payload) {
					t.Fatalf("page %d record %d reads {%d %q} after the raw buffers were overwritten, written {%d %q}",
						page, i, rec.Key, rec.Payload, want.Key, want.Payload)
				}
			}
		}
	})
}

// writePages appends pages to a fresh run and waits for them.
func writePages(t *testing.T, s RunStore, pages ...Page) RunID {
	t.Helper()
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	tok, err := s.Append(id, pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
	return id
}

func testPage(key Key) Page {
	return Page{{Key: key, Payload: []byte("abcdefgh")}, {Key: key + 1, Payload: []byte("ijklmnop")}}
}

// TestFailedDecodeKeepsItsFrame: a frame taken for a read attempt that fails
// its checksum goes back on the free list, so the mandatory re-read decodes
// into the very same memory instead of leaving it to the collector.
func TestFailedDecodeKeepsItsFrame(t *testing.T) {
	var corrupt atomic.Bool
	var raws []*byte // the raw buffer of every fetch
	s, err := NewStoreConfig().WithFaults(hookFuncs{afterRead: func(_ int64, b []byte) error {
		raws = append(raws, &b[0])
		if corrupt.CompareAndSwap(true, false) {
			b[len(b)-1] ^= 0x40 // bit rot in transit: heals on the re-read
		}
		return nil
	}}).File(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := writePages(t, s, testPage(1), testPage(3))

	// Prime the free list with one released frame.
	first := s.ReadAsync(id, 0)
	pg, err := first.Wait()
	if err != nil {
		t.Fatal(err)
	}
	recs, payload := &pg[0], &pg[0].Payload[0]
	first.(interface{ Release() }).Release()
	if s.freeFrames() != 1 {
		t.Fatalf("free list holds %d frames after one release, want 1", s.freeFrames())
	}

	corrupt.Store(true)
	second := s.ReadAsync(id, 1)
	pg, err = second.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if tokenRetries(second) != 1 || corrupt.Load() {
		t.Fatalf("want exactly one corruption re-read, got %d retries", tokenRetries(second))
	}
	if pg[0].Key != 3 || string(pg[1].Payload) != "ijklmnop" {
		t.Fatalf("re-read delivered %v", pg)
	}
	if &pg[0] != recs || &pg[0].Payload[0] != payload {
		t.Fatal("the re-read did not decode into the frame the failed attempt had taken: it leaked")
	}
	if s.freeFrames() != 0 {
		t.Fatalf("free list holds %d frames while the only frame is out", s.freeFrames())
	}
	// So did the raw buffer: the failed attempt's went back to the pool, where
	// the re-read found it (as the failed attempt had found the first read's).
	if len(raws) != 3 {
		t.Fatalf("%d fetches, want 3", len(raws))
	}
	if raws[1] != raws[0] || raws[2] != raws[1] {
		t.Fatalf("three fetches in a row used raw buffers %p, %p, %p: one did not go back to the pool", raws[0], raws[1], raws[2])
	}
}

// TestReleaseIsIdempotent: a second Release must not put the frame on the
// free list again — two readers decoding into one frame is silent corruption.
func TestReleaseIsIdempotent(t *testing.T) {
	s, err := newFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := writePages(t, s, testPage(1), testPage(3), testPage(5))

	tok := s.ReadAsync(id, 0)
	if _, err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
	rel := tok.(interface{ Release() })
	rel.Release()
	rel.Release()
	if s.freeFrames() != 1 {
		t.Fatalf("free list holds %d frames after a double release, want 1", s.freeFrames())
	}
	if pg, err := tok.Wait(); pg != nil || err != nil {
		t.Fatalf("a released token still yields a page: %v, %v", pg, err)
	}
	a, b := s.ReadAsync(id, 1), s.ReadAsync(id, 2)
	pa, errA := a.Wait()
	pb, errB := b.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if &pa[0] == &pb[0] || &pa[0].Payload[0] == &pb[0].Payload[0] {
		t.Fatal("two live pages share one frame")
	}
	if pa[0].Key != 3 || pb[0].Key != 5 || string(pa[0].Payload) != "abcdefgh" || string(pb[1].Payload) != "ijklmnop" {
		t.Fatalf("pages read back wrong: %v %v", pa, pb)
	}
}
