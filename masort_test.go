package masort

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
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
	out, err := SortSlice(context.Background(), in, WithPageRecords(64), WithBudget(NewBudget(16)))
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
					out, err := SortSlice(context.Background(), in,
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
	out, err := SortSlice(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty: %v %d", err, len(out))
	}
	out, err = SortSlice(context.Background(), []Record{{Key: 2}, {Key: 1}})
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
	out, err := SortSlice(context.Background(), in)
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
			out, err := SortSlice(context.Background(), in,
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
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	in := randomRecords(30_000, 6, 16)
	out, err := SortSlice(context.Background(), in,
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
	store, err := NewFileStore("")
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

func TestBudgetSemantics(t *testing.T) {
	b := NewBudget(10)
	if got := b.Acquire(4); got != 4 {
		t.Fatalf("acquire = %d", got)
	}
	if got := b.Acquire(100); got != 6 {
		t.Fatalf("acquire clamped = %d", got)
	}
	b.Shrink(5)
	if b.Target() != 5 || b.Pressure() != 5 {
		t.Fatalf("target=%d pressure=%d", b.Target(), b.Pressure())
	}
	b.Yield(5)
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
	done := make(chan struct{})
	go func() {
		b.WaitTarget(20)
		close(done)
	}()
	time.Sleep(time.Millisecond)
	b.Resize(25)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitTarget never woke")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := SortSlice(context.Background(), nil, WithMethod(Method(9))); err == nil {
		t.Fatal("bad method must fail")
	}
	if _, err := SortSlice(context.Background(), nil, WithMergeStrategy(MergeStrategy(9))); err == nil {
		t.Fatal("bad merge must fail")
	}
	if _, err := SortSlice(context.Background(), nil, WithAdaptation(Adaptation(9))); err == nil {
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
		out, err := SortSlice(context.Background(), recs,
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
	store, err := NewFileStore(t.TempDir())
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
