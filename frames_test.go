package masort

import (
	"bytes"
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
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

// poolDropsPuts reports whether this runtime's sync.Pool throws away part of
// what is put into it, as it does at random under the race detector (a quarter
// of all Puts). The store's raw buffers live in one, so allocation counts
// are the production ones only when it keeps them. (Without the detector a
// Get misses only across two collections; a false positive merely skips a
// bound.)
func poolDropsPuts() bool {
	var p sync.Pool
	const n = 64
	for range n {
		p.Put(new(int))
	}
	for range n {
		if p.Get() == nil {
			return true
		}
	}
	return false
}

func (s *pagedStore) freeFrames() int {
	s.frames.mu.Lock()
	defer s.frames.mu.Unlock()
	return max(len(s.frames.recs), len(s.frames.bufs))
}

// TestMergeReadsAllocateNothing is the allocation gate on the merge's read
// path: merging 40 fenced runs on a FileStore, a page read in steady state
// costs its token (144 B: the request itself — no goroutine, no channel, no
// list of pending reads) plus what the page written for it costs the write
// side — 254 B in all (439 B when every pool put boxed a slice header and
// every output page was an Append of its own), against 607 B when every read
// had a reader goroutine and a completion channel, and 4.9 KB at these
// 64-record pages (14.8 KB at the default 256) when every read allocated its
// record array and read buffer — and the free list stays within its constant.
func TestMergeReadsAllocateNothing(t *testing.T) {
	const pageRecords, budgetPages = 64, 41
	in := randomRecords(budgetPages*40*pageRecords, 7, 16) // 40 memory-sized runs
	for _, tc := range []struct {
		name     string
		every    int64
		schedule []int
		bound    float64 // bytes per sampled read; measured 254 and 463
	}{
		{name: "fixed", bound: 512},
		// sort_file_fluct's kind of traffic while the reads are sampled: a
		// split, a combine aborted by the next shrink, a second one that runs
		// to its absorb. Each rebuilds or re-enters the selection tree, which
		// must allocate nothing for it; the pages each of them drops are the
		// collector's by design (≈ 90 frames here, ≈ 0.3 KB a sampled read),
		// which is why the schedule is no busier than this.
		{name: "fluct", bound: 832, every: 100, schedule: []int{41, 41, 41, 33, 41, 37, 41, 29, 41}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := NewFileStore(t.TempDir())
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
			if poolDropsPuts() {
				t.Log("sync.Pool drops Puts (race detector): encode buffers are reallocated, the byte bound does not apply")
			} else if perRead > tc.bound {
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
// the store, so draining a run from a file-backed store allocates, per page,
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
		it := &runIterator{store: fs, id: id, pages: pages}
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
		if bound := float64(pageRecords*payload + 512); poolDropsPuts() {
			t.Log("sync.Pool drops Puts (race detector): raw buffers are reallocated, the byte bound does not apply")
		} else if perPage > bound {
			t.Errorf("%.0f B allocated per drained page of %d payload bytes, want <= %.0f", perPage, pageRecords*payload, bound)
		}
		if fs.ps.freeFrames() == 0 {
			t.Error("the free list is empty after a drain: no record array came back")
		}
	})
}

// forFileBackends runs fn on the stores that read into memory: FileStore and
// StripedStore, without fault hooks.
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
	if second.(retrier).Retries() != 1 || corrupt.Load() {
		t.Fatalf("want exactly one corruption re-read, got %d retries", second.(retrier).Retries())
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
	if !poolDropsPuts() && (raws[1] != raws[0] || raws[2] != raws[1]) {
		t.Fatalf("three fetches in a row used raw buffers %p, %p, %p: one did not go back to the pool", raws[0], raws[1], raws[2])
	}
}

// TestReleaseIsIdempotent: a second Release must not put the frame on the
// free list again — two readers decoding into one frame is silent corruption.
func TestReleaseIsIdempotent(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
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
