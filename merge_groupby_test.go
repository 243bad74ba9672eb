package masort

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/memadapt/masort/trace"
)

func sortedRecords(n int, start uint64, step uint64) []Record {
	recs := make([]Record, n)
	k := start
	for i := range recs {
		recs[i] = Record{Key: k}
		k += step
	}
	return recs
}

func TestWriteRunValidatesOrder(t *testing.T) {
	store := NewMemStore()
	id, tuples, err := WriteRun(store, NewSliceIterator(sortedRecords(100, 0, 3)), 8)
	if err != nil {
		t.Fatal(err)
	}
	if tuples != 100 || store.Pages(id) != 13 {
		t.Fatalf("tuples=%d pages=%d", tuples, store.Pages(id))
	}
	if _, _, err := WriteRun(store, NewSliceIterator([]Record{{Key: 5}, {Key: 1}}), 8); err == nil {
		t.Fatal("unsorted input must be rejected")
	}
}

// inPlacePages counts the appended pages that are sub-slices of recs, in
// order, and those that are not.
type inPlacePages struct {
	*MemStore
	recs            []Record
	next            int // record the next page should start at
	inPlace, copied int
}

func (c *inPlacePages) Append(id RunID, pages []Page) (Token, error) {
	for _, pg := range pages {
		if &pg[0] == &c.recs[c.next] {
			c.inPlace++
		} else {
			c.copied++
		}
		c.next += len(pg)
	}
	return c.MemStore.Append(id, pages)
}

// TestWriteRunChecksOrderPageByPage: the order check runs over the pages the
// input yields, so a slice input reaches the store as sub-slices of the
// caller's records — no page is copied on the way in — and the error still
// names the first record out of order, whichever kind of input it came from.
func TestWriteRunChecksOrderPageByPage(t *testing.T) {
	recs := sortedRecords(100, 0, 3)
	store := &inPlacePages{MemStore: NewMemStore(), recs: recs}
	if _, _, err := WriteRun(store, NewSliceIterator(recs), 8); err != nil {
		t.Fatal(err)
	}
	if store.inPlace != 13 || store.copied != 0 {
		t.Fatalf("%d pages appended in place, %d copied; want 13 sub-slices of the input", store.inPlace, store.copied)
	}

	for _, at := range []int{1, 7, 8, 13, 99} { // in a page, and across a page boundary
		bad := sortedRecords(100, 10, 3)
		bad[at].Key = bad[at-1].Key - 1
		want := fmt.Sprintf("not sorted at record %d", at)
		i := 0
		inputs := map[string]Iterator{
			"slice": NewSliceIterator(bad),
			"func": FuncIterator(func() (Record, bool, error) {
				if i == len(bad) {
					return Record{}, false, nil
				}
				i++
				return bad[i-1], true, nil
			}),
		}
		for name, in := range inputs {
			mem := NewMemStore()
			if _, _, err := WriteRun(mem, in, 8); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s input out of order at %d: error %v, want %q", name, at, err, want)
			}
			if mem.Live() != 0 {
				t.Errorf("%s input out of order at %d: the rejected run is still live", name, at)
			}
		}
	}
}

// failNthAppend fails the nth Append (1-based) of the store it wraps.
type failNthAppend struct {
	*MemStore
	nth int
}

func (f *failNthAppend) Append(id RunID, pages []Page) (Token, error) {
	if f.nth--; f.nth == 0 {
		return nil, errors.New("injected append failure")
	}
	return f.MemStore.Append(id, pages)
}

// TestWriteRunFreesOnError is the regression for the run WriteRun used to
// leave behind on every error path: whatever stops the write — and however
// many pages already landed — the store ends up with no live run.
func TestWriteRunFreesOnError(t *testing.T) {
	unsorted := sortedRecords(40, 0, 1)
	unsorted[30].Key = 2
	n := 0
	for name, tc := range map[string]struct {
		in      Iterator
		failNth int
	}{
		"unsorted input": {in: NewSliceIterator(unsorted)},
		"iterator error": {in: FuncIterator(func() (Record, bool, error) {
			if n++; n > 30 {
				return Record{}, false, errors.New("source went away")
			}
			return Record{Key: Key(n)}, true, nil
		})},
		// Twenty pages leave in blocks of 6, 6, 6 and 2: the third fails with
		// twelve pages written.
		"append failure": {in: NewSliceIterator(sortedRecords(160, 0, 1)), failNth: 3},
	} {
		mem := NewMemStore()
		if _, _, err := WriteRun(&failNthAppend{MemStore: mem, nth: tc.failNth}, tc.in, 8); err == nil {
			t.Fatalf("%s: WriteRun succeeded", name)
		}
		if live := mem.Live(); live != 0 {
			t.Fatalf("%s: failed WriteRun left %d live run(s)", name, live)
		}
	}
}

func TestMergeExistingRuns(t *testing.T) {
	store := NewMemStore()
	var ids []RunID
	var all []Record
	for i := 0; i < 7; i++ {
		recs := sortedRecords(500+i*100, uint64(i), 7)
		all = append(all, recs...)
		id, _, err := WriteRun(store, NewSliceIterator(recs), 32)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	res, err := Merge(context.Background(), store, ids, WithPageRecords(32), WithBudget(NewBudget(5)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, all, out)
	if res.Stats.MergeSteps < 2 {
		t.Fatalf("5-page budget must force preliminary steps, got %d", res.Stats.MergeSteps)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Live() != 0 {
		t.Fatalf("input runs must be consumed: %d live", store.Live())
	}
}

func TestMergeSingleAndZeroRuns(t *testing.T) {
	store := NewMemStore()
	id, _, err := WriteRun(store, NewSliceIterator(sortedRecords(50, 0, 1)), 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Merge(context.Background(), store, []RunID{id})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := Drain(res.Iterator())
	if len(out) != 50 {
		t.Fatalf("single-run merge: %d records", len(out))
	}
	res0, err := Merge(context.Background(), store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := Drain(res0.Iterator()); len(out) != 0 {
		t.Fatal("zero-run merge must be empty")
	}
}

func TestMergeUnderBudgetChanges(t *testing.T) {
	store := NewMemStore()
	var ids []RunID
	var all []Record
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 30; i++ {
		n := 200 + rng.IntN(800)
		recs := make([]Record, n)
		for j := range recs {
			recs[j] = Record{Key: rng.Uint64()}
		}
		sort.Slice(recs, func(a, b int) bool { return Less(recs[a], recs[b]) })
		all = append(all, recs...)
		id, _, err := WriteRun(store, NewSliceIterator(recs), 16)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	budget := NewBudget(16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewPCG(3, 4))
		for {
			select {
			case <-stop:
				budget.Resize(32)
				return
			default:
				budget.Resize(3 + r.IntN(14))
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	res, err := Merge(context.Background(), store, ids, WithPageRecords(16), WithBudget(budget))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, all, out)
}

func TestGroupByCount(t *testing.T) {
	var recs []Record
	want := map[uint64]int{}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 97
		recs = append(recs, Record{Key: k})
		want[k]++
	}
	res, err := GroupBy(context.Background(), NewSliceIterator(recs), &CountAggregator{},
		WithPageRecords(64), WithBudget(NewBudget(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) {
		t.Fatalf("groups = %d, want %d", len(out), len(want))
	}
	for i, rec := range out {
		if i > 0 && out[i-1].Key >= rec.Key {
			t.Fatal("group keys not strictly increasing")
		}
		n, err := strconv.Atoi(string(rec.Payload))
		if err != nil || n != want[rec.Key] {
			t.Fatalf("key %d count %q, want %d", rec.Key, rec.Payload, want[rec.Key])
		}
	}
}

func TestGroupByDistinct(t *testing.T) {
	recs := []Record{
		{Key: 2, Payload: []byte("b1")},
		{Key: 1, Payload: []byte("a1")},
		{Key: 2, Payload: []byte("b2")},
		{Key: 1, Payload: []byte("a2")},
	}
	res, err := GroupBy(context.Background(), NewSliceIterator(recs), &FirstAggregator{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, _ := Drain(res.Iterator())
	if len(out) != 2 || out[0].Key != 1 || out[1].Key != 2 {
		t.Fatalf("distinct failed: %+v", out)
	}
	// The first record of key 1 in sort order is a1 (payload tiebreak).
	if string(out[0].Payload) != "a1" {
		t.Fatalf("first payload = %q", out[0].Payload)
	}
}

func TestGroupByFuncSum(t *testing.T) {
	recs := []Record{
		{Key: 1, Payload: []byte{3}},
		{Key: 1, Payload: []byte{4}},
		{Key: 9, Payload: []byte{5}},
	}
	sum := 0
	agg := &FuncAggregator{
		OnStart:  func(r Record) { sum = int(r.Payload[0]) },
		OnAdd:    func(r Record) { sum += int(r.Payload[0]) },
		OnFinish: func(Key) []byte { return []byte(fmt.Sprintf("%d", sum)) },
	}
	res, err := GroupBy(context.Background(), NewSliceIterator(recs), agg)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, _ := Drain(res.Iterator())
	if len(out) != 2 || string(out[0].Payload) != "7" || string(out[1].Payload) != "5" {
		t.Fatalf("sums = %+v", out)
	}
}

func TestGroupByEmpty(t *testing.T) {
	res, err := GroupBy(context.Background(), NewSliceIterator(nil), &CountAggregator{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, _ := Drain(res.Iterator())
	if len(out) != 0 {
		t.Fatal("empty input must yield no groups")
	}
}

func TestGroupByUnderBudgetChanges(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	recs := make([]Record, 60000)
	want := map[uint64]int{}
	for i := range recs {
		k := rng.Uint64() % 512
		recs[i] = Record{Key: k}
		want[k]++
	}
	budget := NewBudget(24)
	stop := make(chan struct{})
	go func() {
		r := rand.New(rand.NewPCG(9, 9))
		for {
			select {
			case <-stop:
				return
			default:
				budget.Resize(3 + r.IntN(22))
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	res, err := GroupBy(context.Background(), NewSliceIterator(recs), &CountAggregator{},
		WithPageRecords(64), WithBudget(budget))
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, _ := Drain(res.Iterator())
	if len(out) != len(want) {
		t.Fatalf("groups = %d, want %d", len(out), len(want))
	}
}

// TestGroupByAggregatesInsideItsContract pins that the aggregation pass is
// part of the operator: while Aggregator.Finish runs the operator is still
// attached to its pool (so its two pages are the pool's to arbitrate), and
// the trace span closes only after the result run's last write.
func TestGroupByAggregatesInsideItsContract(t *testing.T) {
	pool := NewPool(24)
	tr := &collectTracer{}
	in := randomRecords(8000, 41, 0)
	for i := range in {
		in[i].Key %= 700
	}
	count := &CountAggregator{}
	agg := &FuncAggregator{OnStart: count.Start, OnAdd: count.Add, OnFinish: func(k Key) []byte {
		if ops := pool.Ops(); ops != 1 {
			t.Errorf("Finish(%d) ran with %d operators attached to the pool, want 1", k, ops)
		}
		return count.Finish(k)
	}}
	res, err := GroupBy(context.Background(), NewSliceIterator(in), agg,
		WithPageRecords(64), WithPool(pool), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Tuples != 700 || res.Pages != 11 || pool.Ops() != 0 {
		t.Fatalf("tuples=%d pages=%d ops=%d, want 700, 11, 0", res.Tuples, res.Pages, pool.Ops())
	}
	lastWrite, opEnd := -1, -1
	for i, ev := range tr.events() {
		switch ev.Kind {
		case trace.KindStoreWrite:
			lastWrite = i
		case trace.KindOpEnd:
			opEnd = i
		}
	}
	if lastWrite < 0 || opEnd < lastWrite {
		t.Fatalf("KindOpEnd at %d, last KindStoreWrite at %d: the span must cover the aggregation pass", opEnd, lastWrite)
	}
}
