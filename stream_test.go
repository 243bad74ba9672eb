package masort

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/memadapt/masort/internal/faultinject"
)

// The tests of a held last merge step: a Sort returns before its last step
// — on two workers, before the last step of each key partition — which
// Result.Iterator runs under the caller's Next.

// streamStore is a run store the stream tests run on, with its live runs.
type streamStore interface {
	RunStore
	Live() int
}

var streamBackends = []struct {
	name string
	open func(t *testing.T) streamStore
}{
	{"file", func(t *testing.T) streamStore {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fs.Close() })
		return fs
	}},
	{"mem", func(*testing.T) streamStore { return NewMemStore() }},
}

// streamInput is 768 pages of 32 records: about six replacement-selection
// runs under a 64-page budget, all of them inputs of the one (last) step.
func streamInput() []Record { return randomRecords(768*32, 61, 8) }

// drainPoints are where the drain tests act on a drain: inside the one step
// of a one-worker sort, and inside each key partition of a two-worker one —
// a quarter and three quarters through streamInput's output, either side of
// the median key the crew cuts its merge at. steps is how many of the
// drain's merge steps are done by then: a partition's step, before the
// drain adapts, is one step. name suffixes a subtest's.
var drainPoints = []struct {
	name        string
	workers, at int
	steps       int
}{
	{"", 1, 1000, 0},
	{"/w2/part1", 2, 768 * 32 / 4, 0},
	{"/w2/part2", 2, 768 * 32 * 3 / 4, 1},
}

// byKeyThenPayload is Less as a three-way comparison, for slices.SortFunc.
func byKeyThenPayload(a, b Record) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Payload, b.Payload)
}

// oracle is the exact output of sorting in.
func oracle(in []Record) []Record {
	out := slices.Clone(in)
	slices.SortFunc(out, byKeyThenPayload)
	return out
}

// sameOutput fails unless got is want, record for record, payloads included.
func sameOutput(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if byKeyThenPayload(got[i], want[i]) != 0 {
			t.Fatalf("record %d is %d/%x, want %d/%x", i, got[i].Key, got[i].Payload, want[i].Key, want[i].Payload)
		}
	}
}

// drainHeld drains res one record at a time, calling at(n) before the n-th
// record (0-based) is read.
func drainHeld(t *testing.T, res *Result, at func(n int)) []Record {
	t.Helper()
	var out []Record
	it := res.Iterator()
	for {
		if at != nil {
			at(len(out))
		}
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatalf("record %d: %v", len(out), err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// TestStreamAdaptsAfterSortReturns: a budget that shrinks from 64 to 4 pages
// in the middle of the drain reaches the last merge step, which only runs
// then — it splits, pages or suspends under the caller's Next — and the
// output is still exactly the sorted input. On two workers the shrink lands
// in either key partition's step.
func TestStreamAdaptsAfterSortReturns(t *testing.T) {
	in := streamInput()
	want := oracle(in)
	for _, be := range streamBackends {
		for _, ad := range []struct {
			name string
			a    Adaptation
		}{{"split", DynamicSplitting}, {"page", MRUPaging}, {"suspend", Suspension}} {
			for _, dp := range drainPoints {
				t.Run(be.name+"/"+ad.name+dp.name, func(t *testing.T) {
					store := be.open(t)
					budget := NewBudget(64)
					returned := false
					var after []EventKind // events of the drain
					res, err := Sort(context.Background(), NewSliceIterator(in),
						WithPageRecords(32), WithBudget(budget), WithStore(store), WithAdaptation(ad.a), WithWorkers(dp.workers),
						WithEvents(func(ev Event) {
							if returned {
								after = append(after, ev.Kind)
							}
							if ev.Kind == EvSuspend {
								go budget.Resize(64) // the owner restores what the step waits for
							}
						}))
					if err != nil {
						t.Fatal(err)
					}
					returned = true
					before := res.Stats
					if budget.Granted() != 0 {
						t.Fatalf("Sort returned holding %d pages", budget.Granted())
					}
					if before.Workers != dp.workers || res.last == nil {
						t.Fatalf("Sort returned %d workers, held step %v: want %d workers and a held step", before.Workers, res.last != nil, dp.workers)
					}
					got := drainHeld(t, res, func(n int) {
						if n == dp.at {
							if done := countKind(after, EvStepDone); done != dp.steps {
								t.Fatalf("%d merge steps done before the shrink, want %d", done, dp.steps)
							}
							budget.Resize(4)
						}
					})
					sameOutput(t, got, want)
					st := res.Stats
					if st.MergeSteps <= before.MergeSteps || st.Workers != dp.workers {
						t.Fatalf("the drain ran no merge step, or changed Workers: %d steps before, %d after; %d workers", before.MergeSteps, st.MergeSteps, st.Workers)
					}
					switch ad.a {
					case DynamicSplitting:
						if !slices.Contains(after, EvSplitStep) || st.Splits <= before.Splits {
							t.Fatalf("no split after Sort returned: %d splits before, %d after, events %v", before.Splits, st.Splits, after)
						}
					case MRUPaging:
						if st.ExtraMergeReads <= before.ExtraMergeReads {
							t.Fatalf("no page fault after Sort returned: %d extra reads before, %d after", before.ExtraMergeReads, st.ExtraMergeReads)
						}
					case Suspension:
						if !slices.Contains(after, EvSuspend) || st.Suspensions <= before.Suspensions {
							t.Fatalf("no suspension after Sort returned: %d before, %d after, events %v", before.Suspensions, st.Suspensions, after)
						}
					}
					if budget.Granted() != 0 {
						t.Fatalf("the drain ended holding %d pages", budget.Granted())
					}
					if err := res.Close(); err != nil {
						t.Fatal(err)
					}
					if store.Live() != 0 {
						t.Fatalf("%d runs live after Close", store.Live())
					}
				})
			}
		}
	}
}

// countKind counts the events of kind k.
func countKind(evs []EventKind, k EventKind) int {
	n := 0
	for _, e := range evs {
		if e == k {
			n++
		}
	}
	return n
}

// TestStreamCloseMidDrainLeaksNothing: Close in the middle of a drain — with
// a split's sub-step run written and not yet merged — frees every run and
// hands every page back, under a Budget and under a Pool; the abandoned
// iterator then reports ErrFreed. On two workers that is in either key
// partition's step, and the runs freed include the ones only the partitions'
// key-range clones still read.
func TestStreamCloseMidDrainLeaksNothing(t *testing.T) {
	const k = 1000
	in := streamInput()
	for _, be := range streamBackends {
		for _, contract := range []string{"budget", "pool"} {
			for _, dp := range drainPoints {
				t.Run(be.name+"/"+contract+dp.name, func(t *testing.T) {
					store := be.open(t)
					budget, pool := NewBudget(64), NewPool(64)
					opts := []Option{WithPageRecords(32), WithStore(store), WithBudget(budget), WithWorkers(dp.workers)}
					if contract == "pool" {
						opts = append(opts, WithPool(pool))
					}
					res, err := Sort(context.Background(), NewSliceIterator(in), opts...)
					if err != nil {
						t.Fatal(err)
					}
					held := store.Live()
					it := res.Iterator()
					for n := 0; n < dp.at+k; n++ {
						if n == dp.at {
							budget.Resize(4)
							pool.Resize(4)
						}
						if _, ok, err := it.Next(); err != nil || !ok {
							t.Fatalf("record %d: ok %v, %v", n, ok, err)
						}
					}
					if store.Live() <= held {
						t.Fatalf("%d runs live mid-drain, %d held: the shrink wrote no sub-step run", store.Live(), held)
					}
					if err := res.Close(); err != nil {
						t.Fatal(err)
					}
					if store.Live() != 0 || budget.Granted() != 0 || pool.Ops() != 0 || pool.Reserved() != 0 {
						t.Fatalf("after Close: %d runs live, %d budget pages granted, %d pool ops, %d pool pages reserved",
							store.Live(), budget.Granted(), pool.Ops(), pool.Reserved())
					}
					if _, _, err := it.Next(); !errors.Is(err, ErrFreed) {
						t.Fatalf("Next after Close: %v, want ErrFreed", err)
					}
				})
			}
		}
	}
}

// TestStreamReadFaultMidDrain: a read that fails while the last step runs
// under the drain is Next's error, with the store's sentinel in its chain,
// and Close afterwards leaves no run, no page and no pool operator behind.
func TestStreamReadFaultMidDrain(t *testing.T) {
	in := streamInput()
	for _, tc := range []struct {
		name string
		rule faultinject.Rule
		want error
	}{
		{"permanent-read", faultinject.Rule{Op: faultinject.Read, Nth: 40,
			Fault: faultinject.Fault{Err: faultinject.Permanent("controller gone")}}, ErrStoreFailed},
		{"bit-flip-persistent", faultinject.Rule{Op: faultinject.Read, Every: 1,
			Fault: faultinject.Fault{FlipBit: 7}}, ErrCorruptPage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(tc.rule)
			store, err := NewStoreConfig().WithFaults(inj).File(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			pool := NewPool(64)
			res, err := Sort(context.Background(), NewSliceIterator(in),
				WithPageRecords(32), WithStore(store), WithPool(pool))
			if err != nil {
				t.Fatal(err)
			}
			if n := inj.Ops(faultinject.Read); n != 0 {
				t.Fatalf("Sort read %d pages: the fault would not land in the drain", n)
			}
			n := 0
			it := res.Iterator()
			for {
				_, ok, err := it.Next()
				if err != nil {
					if !errors.Is(err, tc.want) {
						t.Fatalf("Next's error %v does not match %v", err, tc.want)
					}
					break
				}
				if !ok {
					t.Fatalf("drained all %d records under %v", n, inj)
				}
				n++
			}
			if tc.rule.Nth > 0 && n == 0 {
				t.Fatal("the fault struck before the first record: not mid-drain")
			}
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if store.Live() != 0 || pool.Ops() != 0 || pool.Reserved() != 0 {
				t.Fatalf("after Close: %d runs live, %d pool ops, %d pool pages reserved", store.Live(), pool.Ops(), pool.Reserved())
			}
		})
	}
}

// armedFaults hands a store's reads to the injector only once armed, so
// that a fault lands where the test arms it.
type armedFaults struct {
	*faultinject.Injector
	armed atomic.Bool
}

func (a *armedFaults) AfterRead(off int64, b []byte) error {
	if !a.armed.Load() {
		return nil
	}
	return a.Injector.AfterRead(off, b)
}

// TestStreamReadFaultInSecondPartition: on two workers, a read that fails
// in the second key partition's step — after the first partition's step
// has handed its pages back — is Next's error, with the store's sentinel in
// its chain, and Close afterwards leaves no run and no page behind.
func TestStreamReadFaultInSecondPartition(t *testing.T) {
	in := streamInput()
	dp := drainPoints[2]
	faults := &armedFaults{Injector: faultinject.New(faultinject.Rule{Op: faultinject.Read, Nth: 1,
		Fault: faultinject.Fault{Err: faultinject.Permanent("controller gone")}})}
	store, err := NewStoreConfig().WithFaults(faults).File(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	budget := NewBudget(64)
	returned, done := false, 0 // merge steps done in the drain
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithPageRecords(32), WithStore(store), WithBudget(budget), WithWorkers(2),
		WithEvents(func(ev Event) {
			if ev.Kind == EvStepDone && returned {
				done++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	returned = true
	if res.Stats.Workers != 2 {
		t.Fatalf("Stats.Workers = %d, want 2", res.Stats.Workers)
	}
	it := res.Iterator()
	for n := 0; ; n++ {
		if n == dp.at {
			if done != dp.steps {
				t.Fatalf("%d merge steps done before the fault was armed, want %d", done, dp.steps)
			}
			faults.armed.Store(true)
		}
		_, ok, err := it.Next()
		if err != nil {
			if !errors.Is(err, ErrStoreFailed) {
				t.Fatalf("Next's error %v does not match %v", err, ErrStoreFailed)
			}
			break
		}
		if !ok {
			t.Fatalf("drained all %d records under %v", n, faults.Injector)
		}
	}
	if faults.Injected() != 1 || budget.Granted() != 0 {
		t.Fatalf("%d faults injected, %d pages granted after the failed drain; want 1, 0", faults.Injected(), budget.Granted())
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Live() != 0 || budget.Granted() != 0 {
		t.Fatalf("after Close: %d runs live, %d pages granted", store.Live(), budget.Granted())
	}
}

// TestStreamDrainsTwiceAlike: each Iterator runs the held step afresh — on
// two workers, every partition's — and two drains yield the same records,
// and the second leaves Stats and Pages as the first made them.
func TestStreamDrainsTwiceAlike(t *testing.T) {
	in := streamInput()
	want := oracle(in)
	for _, be := range streamBackends {
		for _, workers := range []int{1, 2} {
			name := be.name
			if workers > 1 {
				name += "/w2"
			}
			t.Run(name, func(t *testing.T) {
				store := be.open(t)
				budget := NewBudget(64)
				res, err := Sort(context.Background(), NewSliceIterator(in),
					WithPageRecords(32), WithBudget(budget), WithStore(store), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				defer res.Close()
				sameOutput(t, drainHeld(t, res, nil), want)
				st, pages := res.Stats, res.Pages
				if pages == 0 || st.MergeSteps == 0 || st.Workers != workers {
					t.Fatalf("after the first drain: %d pages, %d merge steps, %d workers", pages, st.MergeSteps, st.Workers)
				}
				sameOutput(t, drainHeld(t, res, nil), want)
				if res.Stats != st || res.Pages != pages {
					t.Fatalf("the second drain moved the numbers: Stats %+v, then %+v; Pages %d, then %d", st, res.Stats, pages, res.Pages)
				}
				if budget.Granted() != 0 {
					t.Fatalf("%d pages granted between drains", budget.Granted())
				}
			})
		}
	}
}

// TestStreamFeedsASortOnTheSameBudget: one Sort's held last step — on two
// workers, its partitions' steps — is the input of another on the same
// 8-page Budget and FileStore — the query plan WithBudget promises — and
// both finish, exactly, with nothing granted. The two are parties of their
// own to the Budget: the pages each one's events report as its own never
// sum to more than the Budget, although both hold pages at once.
func TestStreamFeedsASortOnTheSameBudget(t *testing.T) {
	in := randomRecords(200*32, 67, 8)
	want := oracle(in)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			budget := NewBudget(8)
			// The pages each operator last reported holding, the most the
			// two held together, and the most both held at once.
			var inner, outer, peak, both int
			seen := func(own *int) Option {
				return WithEvents(func(ev Event) {
					*own = ev.Granted
					peak, both = max(peak, inner+outer), max(both, min(inner, outer))
				})
			}
			opts := []Option{WithPageRecords(32), WithBudget(budget), WithStore(fs)}
			in1, err := Sort(context.Background(), NewSliceIterator(in), append(opts, WithWorkers(workers), seen(&inner))...)
			if err != nil {
				t.Fatal(err)
			}
			defer in1.Close()
			if in1.Stats.Workers != workers || in1.last == nil {
				t.Fatalf("inner Sort: %d workers, held step %v; want %d and a held step", in1.Stats.Workers, in1.last != nil, workers)
			}
			// Quicksort cuts the sorted stream into memory-sized runs, so
			// the outer Sort merges too.
			out, err := Sort(context.Background(), in1.Iterator(), append(opts, WithMethod(Quicksort), seen(&outer))...)
			if err != nil {
				t.Fatal(err)
			}
			if in1.Stats.Runs < 2 || out.Stats.Runs < 2 {
				t.Fatalf("inner %d runs, outer %d: both must merge", in1.Stats.Runs, out.Stats.Runs)
			}
			sameOutput(t, drainHeld(t, out, nil), want)
			if peak > budget.Target() || both == 0 {
				t.Fatalf("the two operators held up to %d pages together on a %d-page budget (both at once: %d)", peak, budget.Target(), both)
			}
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}
			if err := in1.Close(); err != nil {
				t.Fatal(err)
			}
			if budget.Granted() != 0 || fs.Live() != 0 {
				t.Fatalf("%d pages granted, %d runs live", budget.Granted(), fs.Live())
			}
		})
	}
}

// pageCounter counts the pages a store is asked to write and to read.
type pageCounter struct {
	RunStore
	written, read atomic.Int64
}

func (c *pageCounter) Append(id RunID, pages []Page) (Token, error) {
	c.written.Add(int64(len(pages)))
	return c.RunStore.Append(id, pages)
}

func (c *pageCounter) ReadAsync(id RunID, page int) PageToken {
	c.read.Add(1)
	return c.RunStore.ReadAsync(id, page)
}

// TestGroupByFoldsTheStreamedStep: GroupBy aggregates straight off its
// sort's last merge step. The store sees the runs and the preliminary steps
// written, their pages read, and the groups written — nothing else: the
// sorted input's pages, which the last step used to write and the
// aggregation pass to read back, are one write and one read less each.
func TestGroupByFoldsTheStreamedStep(t *testing.T) { groupByWritesOnlyItsGroups(t, 1) }

// TestGroupByFoldsTheStreamedPartitions: on two workers GroupBy folds the
// groups off the held steps of both key partitions, one after the other,
// and the store again sees only the runs, the crew's preliminary steps and
// the groups written: the sorted input is neither written nor read back.
func TestGroupByFoldsTheStreamedPartitions(t *testing.T) { groupByWritesOnlyItsGroups(t, 2) }

func groupByWritesOnlyItsGroups(t *testing.T, workers int) {
	in := randomRecords(600*32, 71, 4)
	groups := map[Key]bool{}
	for i := range in {
		in[i].Key %= 3000
		groups[in[i].Key] = true
	}
	store := &pageCounter{RunStore: NewMemStore()}
	res, err := GroupBy(context.Background(), NewSliceIterator(in), &CountAggregator{},
		WithPageRecords(32), WithBudget(NewBudget(12)), WithStore(store), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	st := res.Stats
	if st.MergeSteps < 2 || res.Tuples != len(groups) || st.Workers != workers {
		t.Fatalf("%d merge steps, %d groups, %d workers: want preliminary steps, %d groups and %d workers", st.MergeSteps, res.Tuples, st.Workers, len(groups), workers)
	}
	if w, r := store.written.Load(), store.read.Load(); w != int64(st.RunPagesWritten+st.MergePagesWritten+res.Pages) || r != int64(st.MergePagesRead) {
		t.Fatalf("store wrote %d pages and read %d; runs %d + merge %d + groups %d written, merge %d read",
			w, r, st.RunPagesWritten, st.MergePagesWritten, res.Pages, st.MergePagesRead)
	}
}

// TestStreamCanceledMidDrain: the held step observes the operator's
// context, so canceling it ends a drain with ErrCanceled at the step's next
// output page, and Close leaves nothing behind.
func TestStreamCanceledMidDrain(t *testing.T) {
	in := streamInput()
	for _, be := range streamBackends {
		t.Run(be.name, func(t *testing.T) {
			store := be.open(t)
			budget := NewBudget(64)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := Sort(ctx, NewSliceIterator(in), WithPageRecords(32), WithBudget(budget), WithStore(store))
			if err != nil {
				t.Fatal(err)
			}
			it := res.Iterator()
			for n := 0; ; n++ {
				if n == 1000 {
					cancel()
				}
				_, ok, err := it.Next()
				if err != nil {
					if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
						t.Fatalf("Next's error %v does not match ErrCanceled and context.Canceled", err)
					}
					break
				}
				if !ok {
					t.Fatal("drained to the end despite the cancellation")
				}
			}
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if store.Live() != 0 || budget.Granted() != 0 {
				t.Fatalf("after Close: %d runs live, %d pages granted", store.Live(), budget.Granted())
			}
		})
	}
}

// TestStreamIteratorsInterleave: two iterators of one held result, advanced
// in turn on one goroutine, each run the step on their own and yield the
// whole output; neither holds a page or a run once both are done. Under a
// Pool the operator stays admitted while either runs — the first to finish
// completes it, the second keeps running on its admission — and leaves once
// both are done.
func TestStreamIteratorsInterleave(t *testing.T) {
	in := streamInput()
	want := oracle(in)
	for _, pooled := range []bool{false, true} {
		store := NewMemStore()
		budget, pool := NewBudget(64), NewPool(64)
		opts := []Option{WithPageRecords(32), WithBudget(budget), WithStore(store)}
		if pooled {
			opts = append(opts, WithPool(pool))
		}
		res, err := Sort(context.Background(), NewSliceIterator(in), opts...)
		if err != nil {
			t.Fatal(err)
		}
		held := store.Live()
		its := []Iterator{res.Iterator(), res.Iterator()}
		outs := make([][]Record, 2)
		for done := 0; done < 2; {
			done = 0
			for i, it := range its {
				rec, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					outs[i] = append(outs[i], rec)
				} else {
					done++
				}
			}
			if pooled && done < 2 && pool.Ops() != 1 {
				t.Fatalf("%d operators admitted while an iterator runs, want 1", pool.Ops())
			}
		}
		sameOutput(t, outs[0], want)
		sameOutput(t, outs[1], want)
		if budget.Granted() != 0 || pool.Ops() != 0 || pool.Total() != pool.arb.Snapshot().Free || store.Live() != held {
			t.Fatalf("pooled %v, after both drains: %d budget pages granted, %d pool operators holding %d pages, %d runs live, %d held",
				pooled, budget.Granted(), pool.Ops(), pool.Total()-pool.arb.Snapshot().Free, store.Live(), held)
		}
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// resizingStore moves a budget through a cycle of levels, one step every 29
// page operations (pages appended, reads issued), on the goroutine issuing
// them — through the drain as through the operation.
type resizingStore struct {
	RunStore
	budget *Budget
	ops    atomic.Int64
}

var resizeLevels = []int{16, 5, 12, 4, 9, 16, 6}

func (s *resizingStore) step(n int) {
	after := s.ops.Add(int64(n))
	if before := after - int64(n); after/29 != before/29 {
		s.budget.Resize(resizeLevels[(after/29)%int64(len(resizeLevels))])
	}
}

func (s *resizingStore) Append(id RunID, pages []Page) (Token, error) {
	s.step(len(pages))
	return s.RunStore.Append(id, pages)
}

func (s *resizingStore) ReadAsync(id RunID, page int) PageToken {
	s.step(1)
	return s.RunStore.ReadAsync(id, page)
}

// TestStreamStatsCountEveryPage is the true I/O count in small: the pages a
// store sees over an operation and its drain are exactly those Stats counts
// once the drain is done — runs and merge steps written, merge steps read —
// and the output is neither written nor read back. It holds on one worker
// and on two, whose crew plans each key partition down to its last step and
// whose drain runs those steps, under a fixed budget and under one that the
// page operations keep resizing through the drain.
func TestStreamStatsCountEveryPage(t *testing.T) {
	in := streamInput()
	want := oracle(in)
	for _, op := range []string{"sort", "sort/w2", "merge"} {
		for _, ad := range []Adaptation{Suspension, MRUPaging, DynamicSplitting} {
			for _, fluct := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/fluct=%v", op, ad, fluct), func(t *testing.T) {
					counter := &pageCounter{RunStore: NewMemStore()}
					budget := NewBudget(16)
					var store RunStore = counter
					if fluct {
						store = &resizingStore{RunStore: counter, budget: budget}
					}
					workers := 1
					if op == "sort/w2" {
						workers = 2
					}
					opts := []Option{WithPageRecords(32), WithBudget(budget), WithStore(store), WithAdaptation(ad), WithWorkers(workers),
						// A suspended step issues no page operations: its
						// owner restores the budget.
						WithEvents(func(ev Event) {
							if ev.Kind == EvSuspend {
								go budget.Resize(16)
							}
						})}
					var res *Result
					var err error
					if op == "merge" {
						var ids []RunID
						for part := range slices.Chunk(in, len(in)/24) {
							id, _, err := WriteRun(counter, NewSliceIterator(oracle(part)), 32)
							if err != nil {
								t.Fatal(err)
							}
							ids = append(ids, id)
						}
						counter.written.Store(0)
						res, err = Merge(context.Background(), store, ids, opts...)
					} else {
						res, err = Sort(context.Background(), NewSliceIterator(in), opts...)
					}
					if err != nil {
						t.Fatal(err)
					}
					defer res.Close()
					if res.Stats.Workers != workers {
						t.Fatalf("Stats.Workers = %d, want %d", res.Stats.Workers, workers)
					}
					sameOutput(t, drainHeld(t, res, nil), want)
					st := res.Stats
					if res.last == nil || st.MergeSteps == 0 {
						t.Fatalf("held step %v, %d merge steps: want a held last step", res.last != nil, st.MergeSteps)
					}
					w, r := counter.written.Load(), counter.read.Load()
					if w != int64(st.RunPagesWritten+st.MergePagesWritten) || r != int64(st.MergePagesRead) {
						t.Fatalf("store wrote %d pages and read %d; Stats: runs %d + merge %d written, merge %d read (output %d pages)",
							w, r, st.RunPagesWritten, st.MergePagesWritten, st.MergePagesRead, res.Pages)
					}
				})
			}
		}
	}
}

// TestStreamTrueIOAtTwoWorkers is the benchmark's sort_file_w2 in pages —
// 7 813 input pages under a 64-page budget, on two workers — at 16 records
// a page instead of 256, which leaves every page count alike. The store sees
// exactly what Stats counts after the drain, and the drain writes nothing:
// the crew no longer writes its partitions' outputs only to read them back.
// Per input page that is at most 3.70 page operations, 2.75 of them
// counted by Stats before the drain, where the benchmark reads them — the
// stored outputs cost 4.65 and 5.65 (a page more each, written and read).
func TestStreamTrueIOAtTwoWorkers(t *testing.T) {
	const inPages = 7813
	in := randomRecords(inPages*16, 73, 16)
	counter := &pageCounter{RunStore: NewMemStore()}
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithPageRecords(16), WithBudget(NewBudget(64)), WithStore(counter), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	before, written := res.Stats, counter.written.Load()
	n := 0
	for _, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	st := res.Stats
	w, r := counter.written.Load(), counter.read.Load()
	if n != len(in) || w != written || w != int64(st.RunPagesWritten+st.MergePagesWritten) || r != int64(st.MergePagesRead) {
		t.Fatalf("%d records out of %d; store wrote %d pages (%d before the drain) and read %d; Stats: %d + %d written, %d read",
			n, len(in), w, written, r, st.RunPagesWritten, st.MergePagesWritten, st.MergePagesRead)
	}
	ratio := func(s Stats) float64 {
		return float64(s.RunPagesWritten+s.MergePagesRead+s.MergePagesWritten) / inPages
	}
	if ratio(st) > 3.70 || ratio(before) > 2.75 || st.Workers != 2 {
		t.Fatalf("%.4f page operations per input page, %.4f of them before the drain, on %d workers: want at most 3.70 and 2.75 on 2",
			ratio(st), ratio(before), st.Workers)
	}
}
