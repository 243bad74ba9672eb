package masort

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"weak"
)

func randomRecords(n int, seed uint64, payload int) []Record {
	rng := rand.New(rand.NewPCG(seed, 17))
	recs := make([]Record, n)
	for i := range recs {
		var p []byte
		if payload > 0 {
			p = make([]byte, payload)
			for j := range p {
				p[j] = byte(rng.Uint64())
			}
		}
		recs[i] = Record{Key: rng.Uint64(), Payload: p}
	}
	return recs
}

// sortSlice sorts recs with Sort and returns the drained output, closing
// the Result.
func sortSlice(ctx context.Context, recs []Record, opts ...Option) ([]Record, error) {
	res, err := Sort(ctx, NewSliceIterator(recs), opts...)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	return Drain(res.Iterator())
}

func assertSorted(t *testing.T, recs []Record) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if Less(recs[i], recs[i-1]) {
			t.Fatalf("unsorted at %d", i)
		}
	}
}

func assertPermutation(t *testing.T, in, out []Record) {
	t.Helper()
	if len(in) != len(out) {
		t.Fatalf("len: in %d out %d", len(in), len(out))
	}
	a := make([]uint64, len(in))
	b := make([]uint64, len(out))
	for i := range in {
		a[i], b[i] = in[i].Key, out[i].Key
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not a permutation")
		}
	}
}

func TestSortDefaults(t *testing.T) {
	in := randomRecords(50_000, 1, 0)
	out, err := sortSlice(context.Background(), in, WithPageRecords(64), WithBudget(NewBudget(16)))
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, in, out)
}

func TestSortAllOptionCombinations(t *testing.T) {
	in := randomRecords(6000, 2, 8)
	for _, m := range []Method{ReplacementSelection, Quicksort} {
		for _, ms := range []MergeStrategy{Optimized, Naive} {
			for _, ad := range []Adaptation{DynamicSplitting, MRUPaging, Suspension} {
				name := fmt.Sprintf("m%d-s%d-a%d", m, ms, ad)
				t.Run(name, func(t *testing.T) {
					store := NewMemStore()
					out, err := sortSlice(context.Background(), in,
						WithMethod(m), WithMergeStrategy(ms), WithAdaptation(ad),
						WithPageRecords(32), WithBudget(NewBudget(8)), WithStore(store))
					if err != nil {
						t.Fatal(err)
					}
					assertSorted(t, out)
					assertPermutation(t, in, out)
					if store.Live() != 0 {
						t.Fatalf("leaked %d runs", store.Live())
					}
				})
			}
		}
	}
}

func TestSortEmptyAndTiny(t *testing.T) {
	out, err := sortSlice(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty: %v %d", err, len(out))
	}
	out, err = sortSlice(context.Background(), []Record{{Key: 2}, {Key: 1}})
	if err != nil || len(out) != 2 || out[0].Key != 1 {
		t.Fatalf("tiny: %v %v", err, out)
	}
}

func TestSortPayloadsPreserved(t *testing.T) {
	in := []Record{
		{Key: 3, Payload: []byte("three")},
		{Key: 1, Payload: []byte("one")},
		{Key: 2, Payload: []byte("two")},
	}
	out, err := sortSlice(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if string(out[0].Payload) != "one" || string(out[2].Payload) != "three" {
		t.Fatalf("payloads scrambled: %v", out)
	}
}

func TestSortStatsPopulated(t *testing.T) {
	in := randomRecords(20_000, 3, 0)
	res, err := Sort(context.Background(), NewSliceIterator(in), WithPageRecords(64), WithBudget(NewBudget(10)))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Stats.Runs < 2 || res.Stats.MergeSteps < 1 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	if res.Counters.Compares == 0 || res.Counters.TupleMoves == 0 {
		t.Fatalf("counters empty: %+v", res.Counters)
	}
	if res.Tuples != len(in) {
		t.Fatalf("tuples = %d", res.Tuples)
	}
}

func TestResultDoubleFree(t *testing.T) {
	res, err := Sort(context.Background(), NewSliceIterator(randomRecords(100, 4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if err := res.Close(); !errors.Is(err, ErrFreed) {
		t.Fatalf("double close = %v, want ErrFreed", err)
	}
	// A closed result must not touch freed storage: iteration reports
	// ErrFreed instead.
	if _, _, err := res.Iterator().Next(); !errors.Is(err, ErrFreed) {
		t.Fatalf("iterate after close = %v, want ErrFreed", err)
	}
}

// TestSortUnderConcurrentBudgetChanges is the library's headline behavior:
// another goroutine shrinks and grows the budget while the sort runs.
func TestSortUnderConcurrentBudgetChanges(t *testing.T) {
	in := randomRecords(120_000, 5, 0)
	for _, ad := range []Adaptation{DynamicSplitting, MRUPaging, Suspension} {
		ad := ad
		t.Run(fmt.Sprintf("adapt%d", ad), func(t *testing.T) {
			budget := NewBudget(32)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(9, uint64(ad)))
				for {
					select {
					case <-stop:
						budget.Resize(64) // plenty for everyone at the end
						return
					default:
					}
					budget.Resize(3 + rng.IntN(30))
					time.Sleep(200 * time.Microsecond)
				}
			}()
			out, err := sortSlice(context.Background(), in,
				WithAdaptation(ad), WithPageRecords(64), WithBudget(budget))
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			assertSorted(t, out)
			assertPermutation(t, in, out)
		})
	}
}

func TestSortWithFileStore(t *testing.T) {
	store, err := newFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	in := randomRecords(30_000, 6, 16)
	out, err := sortSlice(context.Background(), in,
		WithPageRecords(64), WithBudget(NewBudget(12)), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, in, out)
	if store.Live() != 0 {
		t.Fatalf("leaked %d run files", store.Live())
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	store, err := newFileStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, err := store.Create()
	if err != nil {
		t.Fatal(err)
	}
	pages := []Page{
		{{Key: 1, Payload: []byte("a")}, {Key: 2}},
		{{Key: 3, Payload: []byte("ccc")}},
	}
	tok, err := store.Append(id, pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
	if store.Pages(id) != 2 {
		t.Fatalf("pages = %d", store.Pages(id))
	}
	pg, err := store.ReadAsync(id, 1).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(pg) != 1 || pg[0].Key != 3 || string(pg[0].Payload) != "ccc" {
		t.Fatalf("page = %+v", pg)
	}
	// Read then append again: write position must be preserved.
	if _, err := store.Append(id, []Page{{{Key: 4}}}); err != nil {
		t.Fatal(err)
	}
	pg, err = store.ReadAsync(id, 2).Wait()
	if err != nil || pg[0].Key != 4 {
		t.Fatalf("after interleaved read: %v %+v", err, pg)
	}
	if _, err := store.ReadAsync(id, 9).Wait(); err == nil {
		t.Fatal("out of range read must fail")
	}
	if err := store.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := store.Free(id); err == nil {
		t.Fatal("double free must fail")
	}
}

func TestMemStoreErrors(t *testing.T) {
	s := NewMemStore()
	id, _ := s.Create()
	if _, err := s.Append(id+99, nil); err == nil {
		t.Fatal("append to unknown run must fail")
	}
	if _, err := s.ReadAsync(id, 0).Wait(); err == nil {
		t.Fatal("read of missing page must fail")
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(id, []Page{{}}); err == nil {
		t.Fatal("append to freed run must fail")
	}
	// Freed, never created and freed twice stay three different answers, told
	// apart by the id alone: the store keeps nothing for a freed run.
	for _, tc := range []struct {
		err  error
		want string
	}{
		{s.Free(id), "double free of run"},
		{s.Free(id + 99), "free of unknown run"},
		{s.Free(-1), "free of unknown run"},
		{func() error { _, err := s.Append(id, nil); return err }(), "append to freed run"},
		{func() error { _, err := s.ReadAsync(id, 0).Wait(); return err }(), "read of freed run"},
		{func() error { _, err := s.ReadAsync(id+99, 0).Wait(); return err }(), "has no page"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("got %v, want %q", tc.err, tc.want)
		}
	}
}

// TestMemStoreKeepsTheSmallerForm appends to one run a batch each of
// key-only records, 8-byte, 9-byte, 16-byte and 64-byte payloads, and of
// mixed lengths averaging 4.5, 22, 10 and 12 bytes. Payloads of 8 bytes or
// less — 11 on average at mixed lengths, which cost a length column — are
// encoded (a read decodes a copy), longer ones held by reference (a read
// shares the caller's payloads); every page reads back as appended, its
// payloads without spare capacity, and its token offers ReleaseRecords and
// never Release.
func TestMemStoreKeepsTheSmallerForm(t *testing.T) {
	page := func(key uint64, payload func(i int) int) Page {
		pg := make(Page, 8)
		for i := range pg {
			pg[i] = Record{Key: key + uint64(i)}
			if n := payload(i); n > 0 {
				pg[i].Payload = make([]byte, n)
				pg[i].Payload[0] = byte(key + uint64(i))
			}
		}
		return pg
	}
	same := func(n int) func(int) int { return func(int) int { return n } }
	batches := []struct {
		pg   Page
		held bool
	}{
		{page(0, same(0)), false},
		{page(100, same(8)), false},
		{page(200, same(9)), true},
		{page(300, same(16)), true},
		{page(400, same(64)), true},
		{page(500, func(i int) int { return i + 1 }), false},       // 1 to 8 bytes
		{page(600, func(i int) int { return 8 + 4*i }), true},      // 8 to 36 bytes
		{page(700, func(i int) int { return 8 + 4*(i%2) }), false}, // 10 on average
		{page(800, func(i int) int { return 10 + 4*(i%2) }), true}, // 12 on average
	}
	s := NewMemStore()
	defer s.Close()
	id, _ := s.Create()
	want := make([]Page, len(batches))
	for i, b := range batches {
		want[i] = slices.Clone(b.pg)
		if _, err := s.Append(id, []Page{b.pg}); err != nil {
			t.Fatal(err)
		}
		clear(b.pg) // the caller reuses its page at once
	}
	if n := s.Pages(id); n != len(batches) {
		t.Fatalf("%d pages, want %d", n, len(batches))
	}
	for i, w := range want {
		tok := s.ReadAsync(id, i)
		got, err := tok.Wait()
		if err != nil {
			t.Fatal(err)
		}
		SameRecords(t, got, w)
		_, records := tok.(interface{ ReleaseRecords() })
		_, whole := tok.(interface{ Release() })
		if whole || !records {
			t.Errorf("page %d: Release %v, ReleaseRecords %v; want ReleaseRecords only", i, whole, records)
		}
		for j, rec := range got {
			if cap(rec.Payload) != len(rec.Payload) {
				t.Fatalf("page %d record %d: payload cap %d, len %d", i, j, cap(rec.Payload), len(rec.Payload))
			}
			if len(rec.Payload) == 0 {
				continue
			}
			if shared := &rec.Payload[0] == &w[j].Payload[0]; shared != batches[i].held {
				t.Fatalf("page %d record %d: payload shared %v, want held = %v", i, j, shared, batches[i].held)
			}
		}
	}
}

// TestMemStoreReferenceForm reads back a held batch of mixed lengths —
// nil, empty and zero-capacity payloads among them, so the length column is
// in use — whose payloads sit back to back in one caller buffer: each
// payload shares the caller's bytes but has no spare capacity, so an append
// to it leaves the caller's next payload alone, an empty payload pins
// nothing, and ReleaseRecords gives the record array to the next read.
func TestMemStoreReferenceForm(t *testing.T) {
	buf := make([]byte, 0, 1024)
	var pg Page
	for i := range 12 {
		var p []byte
		switch i % 4 {
		case 0: // nil
		case 1:
			p = []byte{}
		case 2:
			p = buf[len(buf):len(buf):len(buf)] // zero capacity
		default:
			at := len(buf)
			for j := range 60 + i {
				buf = append(buf, byte(i+j))
			}
			p = buf[at:len(buf)] // capacity runs on into the next payload
		}
		pg = append(pg, Record{Key: uint64(i), Payload: p})
	}
	if larger, size := encodingLarger([]Page{pg}); !larger || size != -1 {
		t.Fatalf("encodingLarger = %v, %d; want a held batch of mixed lengths", larger, size)
	}
	before := slices.Clone(buf)
	s := NewMemStore()
	defer s.Close()
	id, _ := s.Create()
	if _, err := s.Append(id, []Page{pg, pg[:5]}); err != nil {
		t.Fatal(err)
	}
	tok := s.ReadAsync(id, 0)
	got, err := tok.Wait()
	if err != nil {
		t.Fatal(err)
	}
	SameRecords(t, got, pg)
	for i, rec := range got {
		switch {
		case len(pg[i].Payload) == 0:
			if rec.Payload != nil {
				t.Fatalf("record %d: empty payload read back as %#v, want nil", i, rec.Payload)
			}
		case &rec.Payload[0] != &pg[i].Payload[0]:
			t.Fatalf("record %d: payload is a copy, want the caller's bytes", i)
		case cap(rec.Payload) != len(rec.Payload):
			t.Fatalf("record %d: payload cap %d, len %d", i, cap(rec.Payload), len(rec.Payload))
		default:
			_ = append(rec.Payload, 0xFF)
		}
	}
	if !slices.Equal(buf, before) || !slices.Equal(buf[:cap(buf)][len(buf):], make([]byte, cap(buf)-len(buf))) {
		t.Fatal("an append to a read payload wrote into the caller's buffer")
	}
	if _, whole := tok.(interface{ Release() }); whole {
		t.Fatal("a held page's token offers Release")
	}
	array := &got[0]
	tok.(interface{ ReleaseRecords() }).ReleaseRecords()
	again, err := s.ReadAsync(id, 1).Wait()
	if err != nil {
		t.Fatal(err)
	}
	SameRecords(t, again, pg[:5])
	if &again[0] != array {
		t.Fatal("the next read did not reuse the released record array")
	}
}

// TestFaultyMemStoreEncodesEveryBatch appends batches a MemStore without
// hooks would hold by reference to one built with fault hooks: every Append
// reaches BeforeWrite and every read AfterRead, and the pages read back
// as copies.
func TestFaultyMemStoreEncodesEveryBatch(t *testing.T) {
	var writes, reads atomic.Int64
	h := hookFuncs{
		beforeWrite: func(int64, []byte) (int, error) { writes.Add(1); return 0, nil },
		afterRead:   func(int64, []byte) error { reads.Add(1); return nil },
	}
	s := NewMemStoreWith(NewStoreConfig().WithFaults(h))
	defer s.Close()
	id, _ := s.Create()
	in := randomRecords(64, 3, 64)
	const batches = 4
	for b := range batches {
		part := in[b*16 : (b+1)*16]
		if _, err := s.Append(id, []Page{part[:8], part[8:]}); err != nil {
			t.Fatal(err)
		}
	}
	if n := writes.Load(); n != batches {
		t.Fatalf("hooks saw %d writes, want one per Append: %d", n, batches)
	}
	for i := range s.Pages(id) {
		got, err := s.ReadAsync(id, i).Wait()
		if err != nil {
			t.Fatal(err)
		}
		SameRecords(t, got, in[i*8:(i+1)*8])
		if &got[0].Payload[0] == &in[i*8].Payload[0] {
			t.Fatalf("page %d shares the caller's payloads: it was not encoded", i)
		}
	}
	if n := reads.Load(); n != 2*batches {
		t.Fatalf("hooks saw %d reads, want %d", n, 2*batches)
	}
}

// TestMemStoreSortsMixedForms sorts payloads of 0 to 8 bytes, of 16 bytes
// and of 9 to 40 bytes (by key range) through a MemStore, so runs mix
// encoded batches with batches held by reference, uniform and of mixed
// lengths; it checks the output against the oracle, that every form was
// read, and that every read token offers ReleaseRecords and never Release.
func TestMemStoreSortsMixedForms(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	in := make([]Record, 6000)
	for i := range in {
		k := rng.Uint64N(1000)
		var n int
		switch {
		case k < 400:
			n = rng.IntN(9)
		case k < 700:
			n = 16
		default:
			n = 9 + rng.IntN(32)
		}
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		in[i] = Record{Key: k, Payload: p}
	}
	store := &formCounter{MemStore: NewMemStore(), caller: map[*byte]bool{}}
	for _, r := range in {
		if len(r.Payload) > 0 {
			store.caller[&r.Payload[0]] = true
		}
	}
	res, err := Sort(context.Background(), NewSliceIterator(in), WithStore(store), WithPageRecords(16), WithBudget(NewBudget(6)))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	it := res.Iterator()
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, Record{Key: r.Key, Payload: slices.Clone(r.Payload)})
	}
	res.Close()
	SameRecords(t, got, SortedCopy(in))
	store.mu.Lock()
	defer store.mu.Unlock()
	if store.encoded == 0 || store.uniform == 0 || store.mixed == 0 || store.badToken != 0 {
		t.Fatalf("read %d encoded pages, %d held of one length, %d held of mixed lengths, %d tokens without ReleaseRecords or with Release: the sort did not mix the forms",
			store.encoded, store.uniform, store.mixed, store.badToken)
	}
}

// formCounter counts a MemStore's reads by the form of the page: held
// pages' payloads are the caller's own bytes, encoded pages' are not.
type formCounter struct {
	*MemStore
	caller map[*byte]bool // the first byte of every input payload

	mu                                sync.Mutex
	encoded, uniform, mixed, badToken int
}

func (s *formCounter) ReadAsync(id RunID, page int) PageToken {
	tok := s.MemStore.ReadAsync(id, page)
	_, records := tok.(interface{ ReleaseRecords() })
	_, whole := tok.(interface{ Release() })
	pg, err := tok.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !records || whole {
		s.badToken++
	}
	if err != nil || len(pg) == 0 {
		return tok
	}
	held, lengths := false, map[int]bool{}
	for _, r := range pg {
		held = held || len(r.Payload) > 0 && s.caller[&r.Payload[0]]
		lengths[len(r.Payload)] = true
	}
	switch {
	case !held:
		s.encoded++
	case len(lengths) == 1:
		s.uniform++
	default:
		s.mixed++
	}
	return tok
}

// TestMemStoreCopiesViewsOfItsChunks appends a merge step's output over
// an encoded input run (4-byte payloads, views of the run's chunk) and a
// held one (the caller's 64-byte payloads, held although the store has a
// chunk by then): at 34 bytes on average the batch is one a
// MemStore holds by reference, but held, its short payloads would keep the
// encoded run's whole chunk alive after that run is freed. The batch is
// encoded instead: the chunk is collected once its run is freed, and the
// output reads back as appended.
func TestMemStoreCopiesViewsOfItsChunks(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	appendRun := func(pg Page) RunID {
		id, _ := s.Create()
		if _, err := s.Append(id, []Page{pg}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	caller := randomRecords(256, 64, 64)
	short, long := appendRun(randomRecords(256, 4, 4)), appendRun(caller)
	r, _ := s.run(short)
	chunk := weak.Make(&r.exts[0].dev.(*memDevice).chunks[0].b[0])
	out, _ := s.Create()
	var want Page
	func() {
		a, err := s.ReadAsync(short, 0).Wait()
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.ReadAsync(long, 0).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if &b[0].Payload[0] != &caller[0].Payload[0] {
			t.Fatal("a batch of the caller's 64-byte payloads was not held")
		}
		var merged Page
		for i := range a {
			merged = append(merged, a[i], b[i])
		}
		if larger, _ := encodingLarger([]Page{merged}); !larger {
			t.Fatal("the merged batch is not one the store would hold")
		}
		for _, rec := range merged {
			want = append(want, Record{Key: rec.Key, Payload: slices.Clone(rec.Payload)})
		}
		if _, err := s.Append(out, []Page{merged[:256], merged[256:]}); err != nil {
			t.Fatal(err)
		}
	}()
	for _, id := range []RunID{short, long} {
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	if chunk.Value() != nil {
		t.Fatal("the freed run's chunk is still alive: the output holds views of it")
	}
	var got Page
	for i := range s.Pages(out) {
		pg, err := s.ReadAsync(out, i).Wait()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pg...)
	}
	SameRecords(t, got, want)
}

// TestReleasedRecordArraysPinNoPayloads: a record array handed back with
// ReleaseRecords waits on the store's free list for the next read, and must
// not keep alive the payloads its records last pointed at — here a freed
// run's encoded chunk, which the page's 4-byte payloads were decoded in.
func TestReleasedRecordArraysPinNoPayloads(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	id, _ := s.Create()
	if _, err := s.Append(id, []Page{randomRecords(256, 4, 4)}); err != nil {
		t.Fatal(err)
	}
	r, _ := s.run(id)
	chunk := weak.Make(&r.exts[0].dev.(*memDevice).chunks[0].b[0])
	func() {
		tok := s.ReadAsync(id, 0)
		pg, err := tok.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(pg) != 256 {
			t.Fatalf("%d records read, want 256", len(pg))
		}
		tok.(interface{ ReleaseRecords() }).ReleaseRecords()
	}()
	r = nil
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if chunk.Value() != nil {
		t.Fatal("the freed run's chunk is still alive: a listed record array points into it")
	}
}

// TestMemStoreCopiesOwnedPayloads runs, on a MemStore, a join, whose stored
// payloads — its tuples — are made for the output alone, with 16-byte
// payloads, which a MemStore holds by reference when they are its caller's:
// its runs hold no page, since holding would keep one allocation a record
// alive. A Sort of a slice of records as long, whose payloads are the
// caller's, holds its runs' pages.
func TestMemStoreCopiesOwnedPayloads(t *testing.T) {
	ctx := context.Background()
	in := randomRecords(3000, 9, 8)
	for i := range in {
		in[i].Key %= 500
	}
	opts := func(s *MemStore) []Option {
		return []Option{WithStore(s), WithPageRecords(16), WithBudget(NewBudget(8))}
	}
	long := slices.Clone(in)
	for i := range long {
		long[i].Payload = append(slices.Clone(in[i].Payload), in[i].Payload...)
	}
	for _, tc := range []struct {
		name string
		run  func(s *MemStore) (*Result, error)
		held bool
	}{
		{"join", func(s *MemStore) (*Result, error) {
			return Join(ctx, NewSliceIterator(in), NewSliceIterator(in[:500]), opts(s)...)
		}, false},
		{"sort", func(s *MemStore) (*Result, error) {
			return Sort(ctx, NewSliceIterator(long), opts(s)...)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewMemStore()
			defer s.Close()
			res, err := tc.run(s)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			pages, held := 0, 0
			s.mu.Lock()
			for _, r := range s.runs {
				r.mu.Lock()
				pages += len(r.offsets)
				for _, h := range r.held {
					if h.b != nil {
						held++
					}
				}
				r.mu.Unlock()
			}
			s.mu.Unlock()
			if pages == 0 || (held > 0) != tc.held {
				t.Fatalf("%d of %d stored pages held, want held = %v", held, pages, tc.held)
			}
		})
	}
}

// TestStoresTellFreedRunsApart puts TestMemStoreErrors' table to the
// disk-backed stores: they are MemStore's paged store over other devices,
// and a freed run, a run never created and a run freed twice get three
// different answers on each, told apart by the id alone.
func TestStoresTellFreedRunsApart(t *testing.T) {
	type store interface {
		RunStore
		Close() error
	}
	stores := []struct {
		name string
		open func(dir string) (store, error)
	}{
		{"file", func(dir string) (store, error) {
			return newFileStore(dir)
		}},
		{"striped", func(dir string) (store, error) {
			return NewStoreConfig().File(dir+"/a", dir+"/b")
		}},
		{"mmap", func(dir string) (store, error) {
			return newMmapStore(dir)
		}},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			s, err := st.open(t.TempDir())
			if errors.Is(err, ErrMmapUnsupported) {
				t.Skip("mmap not supported on this platform")
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, _ := s.Create()
			if _, err := s.Append(id, []Page{{{Key: 1}}}); err != nil {
				t.Fatal(err)
			}
			if err := s.Free(id); err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				err  error
				want string
			}{
				{s.Free(id), "double free of run"},
				{s.Free(id + 99), "free of unknown run"},
				{s.Free(-1), "free of unknown run"},
				{func() error { _, err := s.Append(id, []Page{{{Key: 2}}}); return err }(), "append to freed run"},
				{func() error { _, err := s.Append(id+99, []Page{{{Key: 2}}}); return err }(), "append to unknown run"},
				{func() error { _, err := s.ReadAsync(id, 0).Wait(); return err }(), "read of freed run"},
				{func() error { _, err := s.ReadAsync(id+99, 0).Wait(); return err }(), "has no page"},
			} {
				if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
					t.Errorf("got %v, want %q", tc.err, tc.want)
				}
			}
			if n := s.Pages(id); n != 0 {
				t.Errorf("Pages of a freed run = %d", n)
			}
		})
	}
}

func TestBudgetSemantics(t *testing.T) {
	b := NewBudget(10)
	h := register(t, b)
	if got := h.Acquire(4); got != 4 {
		t.Fatalf("acquire = %d", got)
	}
	if got := h.Acquire(100); got != 6 {
		t.Fatalf("acquire clamped = %d", got)
	}
	b.Shrink(5)
	if b.Target() != 5 || b.Pressure() != 5 {
		t.Fatalf("target=%d pressure=%d", b.Target(), b.Pressure())
	}
	h.Yield(5)
	if b.Pressure() != 0 || b.Granted() != 5 {
		t.Fatalf("granted=%d", b.Granted())
	}
	b.Shrink(100)
	if b.Target() != 3 {
		t.Fatalf("floor = %d", b.Target())
	}
	b.Grow(7)
	if b.Target() != 10 {
		t.Fatalf("grow = %d", b.Target())
	}
	done := make(chan error)
	go func() { done <- h.WaitTarget(context.Background(), 20) }()
	time.Sleep(time.Millisecond)
	b.Resize(25)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitTarget: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitTarget never woke")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := sortSlice(context.Background(), nil, WithMethod(Method(9))); err == nil {
		t.Fatal("bad method must fail")
	}
	if _, err := sortSlice(context.Background(), nil, WithMergeStrategy(MergeStrategy(9))); err == nil {
		t.Fatal("bad merge must fail")
	}
	if _, err := sortSlice(context.Background(), nil, WithAdaptation(Adaptation(9))); err == nil {
		t.Fatal("bad adaptation must fail")
	}
}

// TestOptionComposition checks the functional-option contract: options
// compose left to right and later ones override earlier ones.
func TestOptionComposition(t *testing.T) {
	o := applyOptions([]Option{
		WithMethod(Quicksort),
		WithPageRecords(16),
		WithBlockPages(2),
		WithBlockPages(3), // later wins
		nil,               // nil options are ignored
	})
	if o.method != Quicksort || o.pageRecords != 16 || o.blockPages != 3 {
		t.Fatalf("composed options = %+v", o)
	}
}

func TestJoinPublicAPI(t *testing.T) {
	l := make([]Record, 0, 4000)
	r := make([]Record, 0, 2000)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 4000; i++ {
		l = append(l, Record{Key: rng.Uint64() % 1024, Payload: []byte{'L'}})
	}
	for i := 0; i < 2000; i++ {
		r = append(r, Record{Key: rng.Uint64() % 1024, Payload: []byte{'R'}})
	}
	counts := map[uint64]int{}
	for _, x := range r {
		counts[x.Key]++
	}
	want := 0
	for _, x := range l {
		want += counts[x.Key]
	}
	res, err := Join(context.Background(), NewSliceIterator(l), NewSliceIterator(r),
		WithPageRecords(32), WithBudget(NewBudget(10)))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != want {
		t.Fatalf("join size %d, want %d", len(out), want)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Key < out[i-1].Key {
			t.Fatal("join output not key-sorted")
		}
	}
	for _, rec := range out {
		if string(rec.Payload) != "LR" {
			t.Fatalf("payload concat broken: %q", rec.Payload)
		}
	}
	if res.Join == nil || res.Join.LeftRuns < 2 {
		t.Fatalf("join stats: %+v", res.Join)
	}
	if res.Join.ResultTuples != want {
		t.Fatalf("ResultTuples = %d, want %d", res.Join.ResultTuples, want)
	}
}

// Property-based check over the public API: arbitrary keys, page sizes and
// budgets always produce a sorted permutation.
func TestPropertyPublicSort(t *testing.T) {
	f := func(keys []uint64, budget uint8, prec uint8) bool {
		recs := make([]Record, len(keys))
		for i, k := range keys {
			recs[i] = Record{Key: k}
		}
		out, err := sortSlice(context.Background(), recs,
			WithPageRecords(int(prec)%64+1),
			WithBudget(NewBudget(int(budget)%32+3)))
		if err != nil {
			t.Log(err)
			return false
		}
		if len(out) != len(recs) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].Key < out[i-1].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFuncIterator(t *testing.T) {
	i := 0
	it := FuncIterator(func() (Record, bool, error) {
		if i >= 3 {
			return Record{}, false, nil
		}
		i++
		return Record{Key: uint64(i)}, true, nil
	})
	recs, err := Drain(it)
	if err != nil || len(recs) != 3 {
		t.Fatalf("%v %v", err, recs)
	}
}

// TestSortFileStorePayloadIntegrity sorts records whose payload encodes
// their own key through the zero-copy FileStore path under a small budget,
// then verifies every output payload still matches its key — the guard for
// the buffer-recycling and payload-aliasing machinery.
func TestSortFileStorePayloadIntegrity(t *testing.T) {
	store, err := newFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewPCG(21, 2))
	in := make([]Record, 20_000)
	for i := range in {
		k := rng.Uint64()
		p := make([]byte, 8+rng.IntN(24))
		binary.LittleEndian.PutUint64(p, k)
		for j := 8; j < len(p); j++ {
			p[j] = byte(j)
		}
		in[i] = Record{Key: k, Payload: p}
	}
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithPageRecords(64), WithBudget(NewBudget(8)), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	n := 0
	var prev Record
	for rec, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(rec.Payload); got != rec.Key {
			t.Fatalf("record %d: payload encodes key %d, record key %d", n, got, rec.Key)
		}
		for j := 8; j < len(rec.Payload); j++ {
			if rec.Payload[j] != byte(j) {
				t.Fatalf("record %d: payload byte %d corrupted", n, j)
			}
		}
		if n > 0 && Less(rec, prev) {
			t.Fatalf("unsorted at %d", n)
		}
		// Retaining rec.Payload across iterations requires a copy (the
		// zero-copy contract); comparing against prev is safe because its
		// page outlives one step of read-ahead.
		prev = Record{Key: rec.Key}
		n++
	}
	if n != len(in) {
		t.Fatalf("iterated %d of %d records", n, len(in))
	}
}

// TestSortParallelMatchesSerial: WithWorkers must not change the output —
// the parallel result is value-identical to the serial sort, record for
// record, across every method × adaptation.
func TestSortParallelMatchesSerial(t *testing.T) {
	in := randomRecords(60_000, 21, 8)
	for _, m := range []Method{ReplacementSelection, Quicksort} {
		for _, ad := range []Adaptation{DynamicSplitting, MRUPaging, Suspension} {
			t.Run(fmt.Sprintf("m%d-a%d", m, ad), func(t *testing.T) {
				serial, err := sortSlice(context.Background(), in,
					WithMethod(m), WithAdaptation(ad),
					WithPageRecords(64), WithBudget(NewBudget(48)))
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				par, err := sortSlice(context.Background(), in,
					WithMethod(m), WithAdaptation(ad), WithWorkers(4),
					WithPageRecords(64), WithBudget(NewBudget(48)))
				if err != nil {
					t.Fatalf("parallel: %v", err)
				}
				if len(par) != len(serial) {
					t.Fatalf("parallel %d records, serial %d", len(par), len(serial))
				}
				for i := range par {
					if par[i].Key != serial[i].Key || !bytes.Equal(par[i].Payload, serial[i].Payload) {
						t.Fatalf("outputs diverge at record %d", i)
					}
				}
			})
		}
	}
}

// TestWithWorkersResolution pins the option semantics: 0 resolves to
// GOMAXPROCS at option-application time, capped at the two goroutines a
// sort can use, as is any larger count; negatives clamp to serial, and the
// zero-value configuration stays serial.
func TestWithWorkersResolution(t *testing.T) {
	o := applyOptions([]Option{WithWorkers(0)})
	if want := min(runtime.GOMAXPROCS(0), 2); o.workers != want {
		t.Fatalf("WithWorkers(0): workers = %d, want GOMAXPROCS capped at 2, %d", o.workers, want)
	}
	o = applyOptions([]Option{WithWorkers(8)})
	if o.workers != 2 {
		t.Fatalf("WithWorkers(8): workers = %d, want 2", o.workers)
	}
	o = applyOptions([]Option{WithWorkers(-3)})
	if o.workers != 1 {
		t.Fatalf("WithWorkers(-3): workers = %d, want 1", o.workers)
	}
	o = applyOptions(nil)
	if o.workers != 0 {
		t.Fatalf("no options: workers = %d, want 0 (serial)", o.workers)
	}
	// A 1-worker request reports serial execution in the stats.
	res, err := Sort(context.Background(), NewSliceIterator(randomRecords(2000, 1, 0)),
		WithWorkers(1), WithPageRecords(64))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Stats.Workers != 1 {
		t.Fatalf("Stats.Workers = %d, want 1", res.Stats.Workers)
	}
}
