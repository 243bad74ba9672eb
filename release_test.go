package masort_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/memadapt/masort"
	"github.com/memadapt/masort/storetest"
)

// The merge hands consumed input pages back to the store (read tokens'
// Release, or ReleaseRecords where a store offers only that). These tests
// run every operator through storetest.PoisonStore, which scribbles over a
// page the moment it is released, and compare the output with an oracle
// that never saw the store: a page released while a workspace record, an
// output page not yet durable, the heap's payload tie-break or a join group
// still reads it cannot go unnoticed.

// dupRecords draws n records whose keys collide heavily (n/8 distinct keys),
// so ordering leans on the payload tie-break, which reads the workspace
// records' payload bytes — the bytes a premature release scribbles.
func dupRecords(n int, seed uint64) []masort.Record {
	rng := rand.New(rand.NewPCG(seed, 99))
	recs := make([]masort.Record, n)
	for i := range recs {
		p := make([]byte, 12)
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		recs[i] = masort.Record{Key: uint64(rng.IntN(max(n/8, 1))), Payload: p}
	}
	return recs
}

// drainClose reads a result to the end holding every Record, as masort.Drain
// does, and closes it. The iterator gives each page's record array back as it
// leaves the page (ReleaseRecords, which the poison wrapper scribbles over),
// so what is held here is good only if Record values and the bytes their
// payloads alias are never reused under the reader.
func drainClose(t *testing.T, res *masort.Result) []masort.Record {
	t.Helper()
	out, err := masort.Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// drainCopying reads a result to the end one record at a time, keeping a
// deep copy of each and no reference into the store's memory.
func drainCopying(t *testing.T, res *masort.Result) []masort.Record {
	t.Helper()
	var out []masort.Record
	for rec, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, masort.Record{Key: rec.Key, Payload: bytes.Clone(rec.Payload)})
	}
	return out
}

// mergeReleased is how many pages the engine released whole: the wrapper's
// count less the record arrays the drains gave back.
func mergeReleased(p *storetest.PoisonStore) int { return p.Released() - p.ReleasedRecords() }

// resizeCycle is the poison matrix's schedule: down to the 3-page floor and
// back, a step every 37 page operations of the merge.
var resizeCycle = []int{5, 12, 3, 9, 4, 12, 6, 3, 10}

// livePages counts the pages of the runs live in the store beneath it and
// the pages ever appended to it. Read tokens pass through untouched.
type livePages struct {
	masort.RunStore
	mu       sync.Mutex
	pages    map[masort.RunID]int
	appended int
}

func (s *livePages) Create() (masort.RunID, error) {
	id, err := s.RunStore.Create()
	if err == nil {
		s.mu.Lock()
		s.pages[id] = 0
		s.mu.Unlock()
	}
	return id, err
}

func (s *livePages) Append(id masort.RunID, pages []masort.Page) (masort.Token, error) {
	s.mu.Lock()
	s.pages[id] += len(pages)
	s.appended += len(pages)
	s.mu.Unlock()
	return s.RunStore.Append(id, pages)
}

func (s *livePages) Free(id masort.RunID) error {
	s.mu.Lock()
	delete(s.pages, id)
	s.mu.Unlock()
	return s.RunStore.Free(id)
}

// live sums the pages of the live runs.
func (s *livePages) live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.pages {
		n += p
	}
	return n
}

func (s *livePages) written() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

type releaseBackend struct {
	name string
	open func(t *testing.T) masort.RunStore
	// recordsOnly: the store's read tokens offer ReleaseRecords and not
	// Release, so every page comes back as a record array.
	recordsOnly bool
}

func releaseBackends() []releaseBackend {
	closeLater := func(t *testing.T, s interface{ Close() error }) {
		t.Cleanup(func() { _ = s.Close() })
	}
	return []releaseBackend{
		{"mem", func(*testing.T) masort.RunStore {
			return masort.NewMemStore() // payloads are views of the stored chunks
		}, true},
		{"file", func(t *testing.T) masort.RunStore {
			s, err := masort.NewStoreConfig().File(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			closeLater(t, s)
			return s
		}, false},
		{"striped", func(t *testing.T) masort.RunStore {
			s, err := masort.NewStoreConfig().File(t.TempDir(), t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			closeLater(t, s)
			return s
		}, false},
		{"mmap", func(t *testing.T) masort.RunStore {
			s, err := masort.NewStoreConfig().Mmap(t.TempDir())
			if errors.Is(err, masort.ErrMmapUnsupported) {
				t.Skip("mmap not supported on this platform")
			}
			if err != nil {
				t.Fatal(err)
			}
			closeLater(t, s)
			return s // payloads are views of a read-only mapping
		}, false},
	}
}

const (
	relPageRecords = 16
	relBudget      = 12
)

// releaseOps are the four operators, each returning its result, undrained,
// and the oracle's output. Inputs are about 100 pages against a 12-page
// budget, so every one of them merges in several steps.
var releaseOps = []struct {
	name string
	run  func(t *testing.T, store masort.RunStore, opts []masort.Option) (res *masort.Result, want []masort.Record)
}{
	{"sort", func(t *testing.T, store masort.RunStore, opts []masort.Option) (*masort.Result, []masort.Record) {
		in := dupRecords(1600, 1)
		res, err := masort.Sort(context.Background(), masort.NewSliceIterator(in), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res, masort.SortedCopy(in)
	}},
	{"merge", func(t *testing.T, store masort.RunStore, opts []masort.Option) (*masort.Result, []masort.Record) {
		var all []masort.Record
		var ids []masort.RunID
		for i := range 20 {
			run := masort.SortedCopy(dupRecords(80, uint64(10+i)))
			all = append(all, run...)
			id, _, err := masort.WriteRun(store, masort.NewSliceIterator(run), relPageRecords)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		res, err := masort.Merge(context.Background(), store, ids, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res, masort.SortedCopy(all)
	}},
	{"join", func(t *testing.T, store masort.RunStore, opts []masort.Option) (*masort.Result, []masort.Record) {
		left, right := dupRecords(700, 2), dupRecords(700, 3)
		res, err := masort.Join(context.Background(), masort.NewSliceIterator(left), masort.NewSliceIterator(right), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res, joinOracle(left, right) // ordered by key only: compared sorted
	}},
	{"groupby", func(t *testing.T, store masort.RunStore, opts []masort.Option) (*masort.Result, []masort.Record) {
		in := dupRecords(1600, 4)
		agg, want := foldOracle(in)
		res, err := masort.GroupBy(context.Background(), masort.NewSliceIterator(in), agg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res, want
	}},
}

// foldOracle is the GroupBy aggregator the tests run — count and byte sum
// per key, so a scribbled payload moves the sum — and the groups it must
// produce over in.
func foldOracle(in []masort.Record) (*masort.FuncAggregator, []masort.Record) {
	var n, sum int
	fold := func(r masort.Record) {
		n++
		for _, b := range r.Payload {
			sum += int(b)
		}
	}
	agg := &masort.FuncAggregator{
		OnStart:  func(r masort.Record) { n, sum = 0, 0; fold(r) },
		OnAdd:    fold,
		OnFinish: func(masort.Key) []byte { return fmt.Appendf(nil, "%d/%d", n, sum) },
	}
	var want []masort.Record
	for _, r := range masort.SortedCopy(in) {
		if len(want) == 0 || want[len(want)-1].Key != r.Key {
			n, sum = 0, 0
			want = append(want, masort.Record{Key: r.Key})
		}
		fold(r)
		want[len(want)-1].Payload = fmt.Appendf(nil, "%d/%d", n, sum)
	}
	return agg, want
}

// joinOracle is the nested-loop equi-join, ordered by (key, payload).
func joinOracle(left, right []masort.Record) []masort.Record {
	byKey := map[masort.Key][]masort.Record{}
	for _, r := range right {
		byKey[r.Key] = append(byKey[r.Key], r)
	}
	var out []masort.Record
	for _, l := range left {
		for _, r := range byKey[l.Key] {
			out = append(out, masort.Record{Key: l.Key, Payload: slices.Concat(l.Payload, r.Payload)})
		}
	}
	slices.SortFunc(out, masort.ByKeyThenPayload)
	return out
}

// TestPoisonOnReleaseMatrix is the use-after-release gate: every operator x
// method x adaptation strategy x worker count x {fixed budget, resize
// schedule} on every built-in store — MemStore's under its records-only
// release (every payload here is short enough to be encoded), the others'
// under Release. Each result is
// drained twice, record by record and with every Record held to the end:
// the second is what pins that the output iterator, which gives its record
// arrays back, never lets payload bytes be recycled.
func TestPoisonOnReleaseMatrix(t *testing.T) {
	methods := []struct {
		name string
		opt  masort.Option
	}{
		{"quick", masort.WithMethod(masort.Quicksort)},
		{"repl6", masort.WithMethod(masort.ReplacementSelection)},
	}
	adapts := []struct {
		name string
		a    masort.Adaptation
	}{
		{"susp", masort.Suspension}, {"page", masort.MRUPaging}, {"split", masort.DynamicSplitting},
	}
	for _, be := range releaseBackends() {
		for _, op := range releaseOps {
			for _, me := range methods {
				if op.name == "merge" && me.name != "quick" {
					continue // Merge generates no runs: one method is all of them
				}
				for _, ad := range adapts {
					for _, workers := range []int{1, 2} {
						for _, sched := range []string{"fixed", "resize"} {
							name := fmt.Sprintf("%s/%s/%s/%s/w%d/%s", be.name, op.name, me.name, ad.name, workers, sched)
							t.Run(name, func(t *testing.T) {
								poison := storetest.PoisonOnRelease(be.open(t))
								live := &livePages{RunStore: poison, pages: map[masort.RunID]int{}}
								budget := masort.NewBudget(relBudget)
								var store masort.RunStore = live
								schedule := &masort.ResizeOnOps{RunStore: live, Resize: budget.Resize, Cycle: resizeCycle, Every: 37}
								if sched == "resize" {
									store = schedule
								}
								opts := []masort.Option{
									me.opt, masort.WithAdaptation(ad.a), masort.WithWorkers(workers),
									masort.WithPageRecords(relPageRecords), masort.WithBudget(budget), masort.WithStore(store),
									// A suspended step issues no page operations, so the
									// schedule cannot wake it: the budget's owner does.
									masort.WithEvents(func(ev masort.Event) {
										switch {
										case ev.Kind == masort.EvPhase && ev.Phase == "merge":
											schedule.Arm()
										case ev.Kind == masort.EvSuspend:
											go budget.Resize(relBudget)
										}
									}),
								}
								res, want := op.run(t, store, opts)
								// Every result is its operator's last step, which
								// each drain runs afresh. A drain gives every page
								// it consumes back at most once — the pages live
								// when the operator returned, and those its splits
								// write — and, with no adaptation dropping a page
								// it had read, exactly once: every live page. The
								// step's inputs go back record arrays only, a
								// split's inputs whole once written
								// (MergePagesReleased).
								before, held := res.Stats, live.live()
								type count struct{ recs, whole, written int }
								at := func() count {
									return count{poison.ReleasedRecords(), mergeReleased(poison), live.written()}
								}
								counts := []count{at()}
								var st masort.Stats
								for i, drain := range []func(*testing.T, *masort.Result) []masort.Record{drainCopying, drainClose} {
									got := drain(t, res)
									counts = append(counts, at())
									if i == 0 {
										st = res.Stats
									}
									if op.name == "join" {
										slices.SortFunc(got, masort.ByKeyThenPayload)
									}
									masort.SameRecords(t, got, want)
								}
								if st.MergePagesReleased != counts[1].whole {
									t.Fatalf("Stats.MergePagesReleased = %d after the first drain, the store saw %d", st.MergePagesReleased, counts[1].whole)
								}
								if st.MergeSteps == before.MergeSteps {
									t.Fatal("the drains ran no merge step")
								}
								for i := range 2 {
									d := count{counts[i+1].recs - counts[i].recs, counts[i+1].whole - counts[i].whole, counts[i+1].written - counts[i].written}
									if d != (count{recs: held}) && (sched == "fixed" || d.recs == 0 || d.recs+d.whole-d.written > held ||
										i == 0 && d.recs > st.MergePagesRead-before.MergePagesRead) {
										t.Fatalf("drain %d of %d live pages gave back %d record arrays and %d pages, and wrote %d",
											i+1, held, d.recs, d.whole, d.written)
									}
								}
								// The step's pages are merge reads: they count as
								// given back too.
								released := st.MergePagesReleased + counts[1].recs
								// A step before the result returned released what it
								// read: whole, or as record arrays on a store that
								// takes nothing else back, and on every store for a
								// join's joint step, whose pending group may still
								// hold a page's payloads
								// (TestJoinGroupPagesComeBackAsRecordArrays).
								if before.MergeSteps > 0 && counts[0].recs+counts[0].whole == 0 {
									t.Fatalf("%d merge steps before the result gave nothing back", before.MergeSteps)
								}
								if be.recordsOnly && counts[2].whole != 0 {
									t.Fatalf("%d pages released whole by a store whose tokens offer no Release", counts[2].whole)
								}
								if sched == "fixed" && released < st.MergePagesRead/2 {
									t.Fatalf("released %d of %d merge pages at a fixed budget: the matrix is not exercising Release",
										released, st.MergePagesRead)
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestPoisonScribbles pins what the wrapper does to a released page on every
// backend: keys become ^0; payload bytes become 0xDB where they are writable
// and are cut loose (nil) where they are views of a read-only mapping. On
// MemStore, whose tokens offer ReleaseRecords only, the record array is
// scribbled and the payload bytes — the stored chunk — are left alone, so a
// copied record and a second read of the page still see them.
func TestPoisonScribbles(t *testing.T) {
	for _, be := range releaseBackends() {
		t.Run(be.name, func(t *testing.T) {
			store := storetest.PoisonOnRelease(be.open(t))
			id, _, err := masort.WriteRun(store, masort.NewSliceIterator([]masort.Record{{Key: 1, Payload: []byte("abc")}}), 4)
			if err != nil {
				t.Fatal(err)
			}
			tok := store.ReadAsync(id, 0)
			pg, err := tok.Wait()
			if err != nil {
				t.Fatal(err)
			}
			kept := pg[0] // a copied Record, as the engine's workspaces are
			if be.recordsOnly {
				if _, ok := tok.(interface{ Release() }); ok {
					t.Fatal("the token offers Release")
				}
				tok.(interface{ ReleaseRecords() }).ReleaseRecords()
				if pg[0].Key != ^masort.Key(0) || pg[0].Payload != nil || store.ReleasedRecords() != 1 || string(kept.Payload) != "abc" {
					t.Fatalf("released page reads %v, the copy %q, %d records-only releases", pg, kept.Payload, store.ReleasedRecords())
				}
				again, err := store.ReadAsync(id, 0).Wait()
				if err != nil || len(again) != 1 || again[0].Key != 1 || string(again[0].Payload) != "abc" {
					t.Fatalf("second read: %v, %v", again, err)
				}
				return
			}
			tok.(interface{ Release() }).Release()
			if pg[0].Key != ^masort.Key(0) || store.Released() != 1 || store.ReleasedRecords() != 0 {
				t.Fatalf("released page reads %v, %d released (%d records only)", pg, store.Released(), store.ReleasedRecords())
			}
			if be.name == "mmap" {
				if pg[0].Payload != nil || string(kept.Payload) != "abc" {
					t.Fatalf("read-only payload: page has %q, the copy %q", pg[0].Payload, kept.Payload)
				}
			} else if string(kept.Payload) != "\xdb\xdb\xdb" {
				t.Fatalf("the copied record's payload still reads %q", kept.Payload)
			}
		})
	}
}

// TestJoinGroupPagesComeBackAsRecordArrays: the join's final phase keeps the
// right side's equal-key records across advances — across page boundaries
// here, with 40 duplicates a key on 8-record pages — so it gives back the
// record array of every page it has left and never a whole page: the group's
// copied records still hold that page's payloads. With a budget that fits
// both relations' runs there is no preliminary merge, hence no page released
// whole at all.
func TestJoinGroupPagesComeBackAsRecordArrays(t *testing.T) {
	mk := func(seed uint64) []masort.Record {
		rng := rand.New(rand.NewPCG(seed, 5))
		recs := make([]masort.Record, 1200)
		for i := range recs {
			recs[i] = masort.Record{Key: uint64(rng.IntN(30)), Payload: fmt.Appendf(nil, "%d-%05d", seed, i)}
		}
		return recs
	}
	left, right := mk(1), mk(2)
	inner, err := masort.NewStoreConfig().File(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	poison := storetest.PoisonOnRelease(inner)
	res, err := masort.Join(context.Background(), masort.NewSliceIterator(left), masort.NewSliceIterator(right),
		masort.WithMethod(masort.Quicksort), masort.WithPageRecords(8), masort.WithBudget(masort.NewBudget(64)), masort.WithStore(poison))
	if err != nil {
		t.Fatal(err)
	}
	st, joined := res.Stats, poison.ReleasedRecords()
	got := drainClose(t, res)
	slices.SortFunc(got, masort.ByKeyThenPayload)
	masort.SameRecords(t, got, joinOracle(left, right))
	if st.MergeSteps != 1 || st.MergePagesRead == 0 {
		t.Fatalf("want one joint step reading pages, got %d steps, %d pages read", st.MergeSteps, st.MergePagesRead)
	}
	if st.MergePagesReleased != 0 || mergeReleased(poison) != 0 {
		t.Fatalf("the joint step released pages (stats %d, store %d): group records alias them", st.MergePagesReleased, mergeReleased(poison))
	}
	if joined != st.MergePagesRead {
		t.Fatalf("the joint step read %d pages and gave back %d record arrays", st.MergePagesRead, joined)
	}
}

// resizeOnRead resizes the budget inside chosen page reads, on the engine's
// own goroutine: a rule fires on the nth read of page `page` of the run that
// was the order-th one created.
type resizeOnRead struct {
	masort.RunStore
	budget *masort.Budget
	runs   []masort.RunID // in creation order
	rules  []resizeRule
	reads  map[[2]int]int
	fired  int
}

type resizeRule struct{ order, page, nth, to int }

func (s *resizeOnRead) Create() (masort.RunID, error) {
	id, err := s.RunStore.Create()
	s.runs = append(s.runs, id)
	return id, err
}

func (s *resizeOnRead) ReadAsync(id masort.RunID, page int) masort.PageToken {
	k := [2]int{slices.Index(s.runs, id), page}
	s.reads[k]++
	for _, r := range s.rules {
		if r.order == k[0] && r.page == page && r.nth == s.reads[k] {
			s.budget.Resize(r.to)
			s.fired++
		}
	}
	return s.RunStore.ReadAsync(id, page)
}

// TestJoinGroupSurvivesSplitMidGroup drives a join under dynamic splitting
// into the one state where a released page could still be aliased: the joint
// step is interrupted with an equal-key group half gathered, and the run whose
// page the group aliases — its workspace on that page's last record, a higher
// key — goes into the preliminary merge that follows. That merge emits the
// workspace record; it must not send the page home with it.
//
// 4-record pages, an 8-page budget while splitting: the left input makes runs
// L1 (8 pages) and L2 (1 page), the right one A, B, D, C (8 pages each). Page
// 0 of A is [1 5 5 9], of B [1 5 8 8], of D [5 6 6 6]; C starts at 7, L1 is
// [1 1 5 5 ...], L2 [5 7 9 9]. The budget moves inside three page reads:
//
//  1. the joint step's last first load (C) drops it to 3. The step joins key
//     1 — one output page — then splits at its adaptation point: every run
//     keeps its position (A, B, D and both left runs on a 5) but no buffer,
//     and all but 3 pages go back;
//  2. the preliminary merge of L1 and L2 raises it to 6, which fits the joint
//     step again (L, A, B, D, C), resumed holding only those 3 pages and
//     loading each run's page when first advanced;
//  3. the group for key 5 gathers A's two records, the second off a fresh
//     read of page 0 — A now stands on the 9, between pages — then B's one,
//     and that re-read of B's page 0 drops the budget to 3: D's record is
//     gathered, its refill finds no page to be had, and the step splits
//     mid-group. The 2 shortest right runs merge next: A (a page shorter)
//     and B.
//
// (MmapStore and MemStore cannot fail this way — payloads are views of the
// mapping or of the stored chunks, which no release recycles — but run the
// same schedule.)
func TestJoinGroupSurvivesSplitMidGroup(t *testing.T) {
	run := func(tag string, keys ...int) []masort.Record {
		recs := make([]masort.Record, 32)
		for i := range recs {
			k := keys[min(i, len(keys)-1)] // the last key fills the run
			recs[i] = masort.Record{Key: uint64(k), Payload: fmt.Appendf(nil, "%s%02d", tag, i)}
		}
		return recs
	}
	left := append(run("l1-", 1, 1, 5, 5, 6, 8, 9, 10), run("l2-", 5, 7, 9, 9)[:4]...)
	right := slices.Concat(run("ra-", 1, 5, 5, 9), run("rb-", 1, 5, 8), run("rd-", 5, 6), run("rc-", 7))
	const l1, a, b, c = 0, 2, 3, 5 // creation order: L1 L2 A B D C, then the merge's own runs

	for _, be := range releaseBackends() {
		t.Run(be.name, func(t *testing.T) {
			poison := storetest.PoisonOnRelease(be.open(t))
			budget := masort.NewBudget(8)
			store := &resizeOnRead{RunStore: poison, budget: budget, reads: map[[2]int]int{}, rules: []resizeRule{
				{order: c, page: 0, nth: 1, to: 3},
				{order: l1, page: 3, nth: 1, to: 6},
				{order: b, page: 0, nth: 2, to: 3},
			}}
			splits := 0
			res, err := masort.Join(context.Background(), masort.NewSliceIterator(left), masort.NewSliceIterator(right),
				masort.WithMethod(masort.Quicksort), masort.WithAdaptation(masort.DynamicSplitting),
				masort.WithPageRecords(4), masort.WithBudget(budget), masort.WithStore(store),
				masort.WithEvents(func(ev masort.Event) {
					if ev.Kind == masort.EvSplitStep {
						splits++
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			got := drainClose(t, res)
			if splits != 2 || store.fired != 3 || store.reads[[2]int{a, 0}] != 2 {
				t.Fatalf("scenario not reached: %d splits, %d of 3 resizes, page 0 of A read %d times",
					splits, store.fired, store.reads[[2]int{a, 0}])
			}
			slices.SortFunc(got, masort.ByKeyThenPayload)
			masort.SameRecords(t, got, joinOracle(left, right))
			if be.recordsOnly {
				if st.MergePagesReleased != 0 || mergeReleased(poison) != 0 || poison.ReleasedRecords() == 0 {
					t.Fatalf("%d pages released whole (%d by Stats), %d record arrays", mergeReleased(poison), st.MergePagesReleased, poison.ReleasedRecords())
				}
				return
			}
			if st.MergePagesReleased == 0 || st.MergePagesReleased != mergeReleased(poison) {
				t.Fatalf("preliminary merges released %d pages, the store saw %d", st.MergePagesReleased, mergeReleased(poison))
			}
		})
	}
}
