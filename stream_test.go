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
// — on one worker or two, whose runs merge alike — which Result.Iterator runs
// under the caller's Next.

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
// of a one-worker sort, and inside the one step of a two-worker sort, in
// the first and in the second part of its output — a quarter and three
// quarters through streamInput's output. No merge step of the drain is done
// by then: the held step is one step until the drain adapts. name suffixes a
// subtest's.
var drainPoints = []struct {
	name        string
	workers, at int
}{
	{"", 1, 1000},
	{"/w2/part1", 2, 768 * 32 / 4},
	{"/w2/part2", 2, 768 * 32 * 3 / 4},
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
// in the same one step, early or late in its output.
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
							if done := countKind(after, EvStepDone); done != 0 {
								t.Fatalf("%d merge steps done before the shrink, want none", done)
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

// TestStreamHoldsNoOutputPage is the memory contract of a step that hands
// its records out one at a time: the Budget shrinks from 64 pages to 3
// between two Next calls and grows back later. Once the step has passed its
// next adaptation point — at most a page of records on — its pages never
// exceed the target: it splits down to a root of exactly 3 inputs, a page
// each and no output page. The output is exact, the Budget and the store end
// empty, and Pages counts the records in whole pages as a stored output
// would.
func TestStreamHoldsNoOutputPage(t *testing.T) {
	const records, shrinkAt, growAt, target = 32, 1000, 8000, 3
	in := streamInput()
	want := oracle(in)
	for _, be := range streamBackends {
		t.Run(be.name, func(t *testing.T) {
			store := be.open(t)
			budget := NewBudget(64)
			returned := false
			var splits, rootFanIn int // the drain's splits, and its last step's fan-in
			res, err := Sort(context.Background(), NewSliceIterator(in),
				WithPageRecords(records), WithBudget(budget), WithStore(store),
				WithEvents(func(ev Event) {
					switch {
					case !returned:
					case ev.Kind == EvSplitStep:
						splits++
						if ev.Target != target {
							t.Errorf("the drain split under a %d-page target, want %d", ev.Target, target)
						}
					case ev.Kind == EvStepDone:
						rootFanIn = ev.Detail
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			returned = true
			if res.last == nil || res.Stats.Runs <= target {
				t.Fatalf("held step %v over %d runs: want a held step over more than %d", res.last != nil, res.Stats.Runs, target)
			}
			got := drainHeld(t, res, func(n int) {
				switch n {
				case shrinkAt:
					budget.Resize(target)
				case growAt:
					budget.Resize(64)
				}
				if (n < shrinkAt || n >= shrinkAt+records) && budget.Granted() > budget.Target() {
					t.Fatalf("before record %d: %d pages granted on a %d-page budget", n, budget.Granted(), budget.Target())
				}
			})
			sameOutput(t, got, want)
			if splits == 0 || rootFanIn != target {
				t.Fatalf("the drain split %d times down to a last step of %d inputs, want a root of %d", splits, rootFanIn, target)
			}
			if res.Tuples != len(in) || res.Pages != (len(in)+records-1)/records {
				t.Fatalf("Tuples %d, Pages %d: want %d records in %d pages", res.Tuples, res.Pages, len(in), (len(in)+records-1)/records)
			}
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if budget.Granted() != 0 || store.Live() != 0 {
				t.Fatalf("after Close: %d pages granted, %d runs live", budget.Granted(), store.Live())
			}
		})
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
// iterator then reports ErrFreed. On two workers that is early or late in
// the same one step, over the runs both workers wrote.
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

// TestStreamDrainsTwiceAlike: each Iterator runs the held step afresh — on
// one worker and on two — and two drains yield the same records, and the
// second leaves Stats and Pages as the first made them.
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

// TestStreamFeedsASortOnTheSameBudget: one Sort's held last step — on one
// worker or two — is the input of another on the same
// 8-page Budget and FileStore — the query plan WithBudget promises — and
// both finish, exactly, with nothing granted. The two are operators of the
// Budget's arbiter: the pages each one's events report as its own never
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
// sort's last merge step, under the drain. The store sees the runs and the
// preliminary steps written, and their pages read — nothing else: neither
// the sorted input nor the groups are written, or read back.
func TestGroupByFoldsTheStreamedStep(t *testing.T) { groupByWritesOnlyItsSort(t, 1) }

// TestGroupByFoldsTheStreamedPartitions: on two workers GroupBy folds the
// groups off the one held step over both workers' runs, and the store again
// sees only the runs and the preliminary steps written and read.
func TestGroupByFoldsTheStreamedPartitions(t *testing.T) { groupByWritesOnlyItsSort(t, 2) }

func groupByWritesOnlyItsSort(t *testing.T, workers int) {
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
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.MergeSteps < 2 || len(out) != len(groups) || res.Tuples != len(groups) || st.Workers != workers {
		t.Fatalf("%d merge steps, %d groups (Tuples %d), %d workers: want preliminary steps, %d groups and %d workers",
			st.MergeSteps, len(out), res.Tuples, st.Workers, len(groups), workers)
	}
	if w, r := store.written.Load(), store.read.Load(); w != int64(st.RunPagesWritten+st.MergePagesWritten) || r != int64(st.MergePagesRead) {
		t.Fatalf("store wrote %d pages and read %d; runs %d + merge %d written, merge %d read",
			w, r, st.RunPagesWritten, st.MergePagesWritten, st.MergePagesRead)
	}
}

// TestStatsEqualTheStore: after the drain, a GroupBy's and a Join's Stats
// count every page the store wrote and read — a Join's output, which its
// joint step writes and the drain's last step reads back, included
// (budget 16, pages of 32 records, each key twice).
func TestStatsEqualTheStore(t *testing.T) {
	const pages, r = 400, 32
	twice := func(n int, seed uint64) []Record {
		in := randomRecords(n, seed, 4)
		for i := range in {
			in[i].Key = in[i/2*2].Key
		}
		return in
	}
	ctx := context.Background()
	for _, op := range []string{"groupby", "join"} {
		t.Run(op, func(t *testing.T) {
			store := &pageCounter{RunStore: NewMemStore()}
			opts := []Option{WithPageRecords(r), WithBudget(NewBudget(16)), WithStore(store)}
			var res *Result
			var err error
			if op == "groupby" {
				res, err = GroupBy(ctx, NewSliceIterator(twice(pages*r, 5)), &CountAggregator{}, opts...)
			} else {
				res, err = Join(ctx, NewSliceIterator(twice(pages/2*r, 6)), NewSliceIterator(twice(pages/2*r, 6)), opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			out, err := Drain(res.Iterator())
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			w, rd := store.written.Load(), store.read.Load()
			t.Logf("%d records out; store wrote %d pages, read %d; Stats: runs %d + merge %d written, merge %d read",
				len(out), w, rd, st.RunPagesWritten, st.MergePagesWritten, st.MergePagesRead)
			if len(out) != res.Tuples || w != int64(st.RunPagesWritten+st.MergePagesWritten) || rd != int64(st.MergePagesRead) {
				t.Fatalf("%d records, Tuples %d: the store's pages are not the Stats'", len(out), res.Tuples)
			}
		})
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
// Pool the first runs on the operator's admission and the second on one of
// its own, so two operators are admitted while both run; the first to
// finish completes the operator, and nothing is admitted once both are
// done.
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
			if pooled && done == 0 && pool.Ops() != 2 {
				t.Fatalf("%d operators admitted while two iterators run, want 2", pool.Ops())
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
// and on two, whose runs merge as one worker's do, under a fixed budget and
// under one that the page operations keep resizing through the drain.
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
// 7 813 input pages under a 64-page budget — at 16 records a page instead
// of 256, which leaves every page count alike. A two-worker sort is the
// one-worker sort: the same runs, run-done event for run-done event,
// and the same Stats, page for page, before the drain and after it. The
// store sees exactly what Stats counts after the drain, and the drain
// writes nothing.
func TestStreamTrueIOAtTwoWorkers(t *testing.T) {
	const inPages = 7813
	in := randomRecords(inPages*16, 73, 16)
	type outcome struct {
		before, after Stats
		runs          []int // EvRunDone pages, in order
	}
	sort := func(workers int) outcome {
		var o outcome
		counter := &pageCounter{RunStore: NewMemStore()}
		res, err := Sort(context.Background(), NewSliceIterator(in),
			WithPageRecords(16), WithBudget(NewBudget(64)), WithStore(counter), WithWorkers(workers),
			WithEvents(func(ev Event) {
				if ev.Kind == EvRunDone {
					o.runs = append(o.runs, ev.Detail)
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		o.before = res.Stats
		written := counter.written.Load()
		n := 0
		for _, err := range res.All() {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		o.after = res.Stats
		st := o.after
		w, r := counter.written.Load(), counter.read.Load()
		if n != len(in) || w != written || w != int64(st.RunPagesWritten+st.MergePagesWritten) || r != int64(st.MergePagesRead) {
			t.Fatalf("%d workers: %d records out of %d; store wrote %d pages (%d before the drain) and read %d; Stats: %d + %d written, %d read",
				workers, n, len(in), w, written, r, st.RunPagesWritten, st.MergePagesWritten, st.MergePagesRead)
		}
		if st.Workers != workers {
			t.Fatalf("Stats.Workers = %d, want %d", st.Workers, workers)
		}
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
		// What may differ: the worker count and the clocks.
		for _, s := range []*Stats{&o.before, &o.after} {
			s.Workers, s.SplitDuration, s.MergeDuration, s.Response = 0, 0, 0, 0
			s.ReadLatency, s.WriteLatency = 0, 0
		}
		return o
	}
	one, two := sort(1), sort(2)
	if !slices.Equal(one.runs, two.runs) {
		t.Fatalf("run-done events: %d runs at one worker, %d at two, or their pages differ", len(one.runs), len(two.runs))
	}
	if one.before != two.before || one.after != two.after {
		t.Fatalf("Stats at two workers differ from one worker's:\nbefore the drain %+v\n            vs %+v\nafter the drain  %+v\n            vs %+v",
			two.before, one.before, two.after, one.after)
	}
	ratio := func(s Stats) float64 {
		return float64(s.RunPagesWritten+s.MergePagesRead+s.MergePagesWritten) / inPages
	}
	t.Logf("%d runs, %d merge steps: %.4f page operations per input page, %.4f of them before the drain",
		one.after.Runs, one.after.MergeSteps, ratio(one.after), ratio(one.before))
}
