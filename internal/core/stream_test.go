package core

import (
	"context"
	"slices"
	"testing"

	"github.com/memadapt/masort/internal/memarb"
)

// countingStore counts the pages its store is asked to write and to read.
type countingStore struct {
	RunStore
	written, read int
}

func (c *countingStore) Append(id RunID, pages []Page) (Token, error) {
	c.written += len(pages)
	return c.RunStore.Append(id, pages)
}

func (c *countingStore) ReadAsync(id RunID, page int) PageToken {
	c.read++
	return c.RunStore.ReadAsync(id, page)
}

// TestHeldLastStepSavesExactlyItsOutput: under a fixed budget, a sort or a
// merge whose last step is held back (Env.StreamLast) and run by a Stream
// makes every page operation the materialising one makes — the operation
// followed by a drain of its result run — except the last step's output:
// Pages fewer written and Pages fewer read, same records. And what the store
// saw is what the streamed operation's stats count.
func TestHeldLastStepSavesExactlyItsOutput(t *testing.T) {
	recs := makeRecords(3000, 7)
	for _, op := range []string{"sort", "merge"} {
		for _, ad := range []Adapt{Suspend, Paging, DynSplit} {
			cfg := SortConfig{Method: Quick, BlockPages: 1, Merge: OptMerge, Adapt: ad, PageRecords: 8, MinPages: 3, MergeBlockPages: 6}
			// run performs the operation and its drain on a fresh store,
			// counting both, and returns what the drain read and the stats.
			run := func(hold bool) (*countingStore, []Record, int, SortStats) {
				env, store, _, _ := testEnv(t, recs, 8, 12, 3)
				var ids []RunID
				if op == "merge" {
					for i := range 20 {
						part := slices.Clone(recs[i*150 : (i+1)*150])
						slices.SortFunc(part, func(a, b Record) int { return cmpRecords(a, b) })
						w, err := WriteRun(&Env{Store: store, In: &sliceInput{pages: pagesOf(part, 8)}}, 1)
						if err != nil {
							t.Fatal(err)
						}
						ids = append(ids, w.Result)
					}
				}
				cs := &countingStore{RunStore: store}
				env.Store, env.StreamLast = cs, hold
				var res *SortResult
				var err error
				if op == "sort" {
					res, err = ExternalSort(env, cfg)
				} else {
					res, err = MergeExisting(env, cfg, ids)
				}
				if err != nil {
					t.Fatal(err)
				}
				var out []Record
				pages, st := res.Pages, res.Stats
				if hold {
					if res.Last == nil {
						t.Fatal("StreamLast held no step")
					}
					s := res.Last.Stream(env.Mem)
					for pages = 0; ; pages++ {
						pg, ok, err := s.NextPage()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						out = append(out, pg...)
					}
					st = s.Stats()
					if err := res.Last.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					for p := range res.Pages {
						pg, err := cs.ReadAsync(res.Result, p).Wait()
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, pg...)
					}
				}
				if env.Mem.Granted() != 0 || store.liveRuns() != 1-btoi(hold) {
					t.Fatalf("hold %v: %d pages granted, %d runs live", hold, env.Mem.Granted(), store.liveRuns())
				}
				return cs, out, pages, st
			}
			t.Run(op+"/"+cfg.Notation(), func(t *testing.T) {
				mat, matOut, pages, _ := run(false)
				held, heldOut, heldPages, st := run(true)
				if !slices.EqualFunc(matOut, heldOut, func(a, b Record) bool { return cmpRecords(a, b) == 0 }) {
					t.Fatal("the held step produced other records than the materialised result")
				}
				checkSorted(t, heldOut)
				if heldPages != pages || mat.written-held.written != pages || mat.read-held.read != pages {
					t.Fatalf("materialised: %d pages out, %d written, %d read; held: %d pages out, %d written, %d read",
						pages, mat.written, mat.read, heldPages, held.written, held.read)
				}
				if n := st.RunPagesWritten + st.MergePagesRead + st.MergePagesWritten; n != held.written+held.read {
					t.Fatalf("stats count %d page operations, the store saw %d", n, held.written+held.read)
				}
			})
		}
	}
}

// streamAll runs l to its end on mem, returns its records and closes l.
func streamAll(t *testing.T, l *LastStep, mem Broker) []Record {
	t.Helper()
	s := l.Stream(mem)
	var out []Record
	for {
		pg, ok, err := s.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, pg...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func cmpRecords(a, b Record) int {
	switch {
	case Less(a, b):
		return -1
	case Less(b, a):
		return 1
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// flickerBroker reports a target that alternates between lo and hi from one
// Target call to the next, as if a concurrent Resize landed between any two
// reads. Grants follow the scripted broker underneath, whose total is hi.
type flickerBroker struct {
	*scriptedBroker
	lo, hi, calls int
}

func (b *flickerBroker) Target() int {
	b.calls++
	if b.calls%2 == 0 {
		return b.hi
	}
	return b.lo
}

// TestHeldRootDecidedOnOneTarget: a dynamic plan holds its root on the very
// target read that would otherwise run it, so a target that grows between
// two reads cannot make the plan run the held root with no output run.
// Either phase of the flicker is tried: one of them lands a small read just
// before a large one wherever the root becomes active.
func TestHeldRootDecidedOnOneTarget(t *testing.T) {
	recs := makeRecords(3000, 11)
	want := slices.Clone(recs)
	slices.SortFunc(want, cmpRecords)
	cfg := SortConfig{Method: Quick, BlockPages: 1, Merge: OptMerge, Adapt: DynSplit, PageRecords: 8, MinPages: 3, MergeBlockPages: 6}
	for phase := range 2 {
		env, store, sb, _ := testEnv(t, recs, 8, 64, 3)
		b := &flickerBroker{scriptedBroker: sb, lo: 3, hi: 64, calls: phase}
		env.Mem, env.StreamLast = b, true
		res, err := ExternalSort(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Last == nil || res.Stats.Runs < 4 {
			t.Fatalf("phase %d: %d runs, held step %v: want a held step over at least 4 runs", phase, res.Stats.Runs, res.Last != nil)
		}
		out := streamAll(t, res.Last, b)
		if !slices.EqualFunc(out, want, func(a, b Record) bool { return cmpRecords(a, b) == 0 }) {
			t.Fatalf("phase %d: the held step produced %d records, not the sorted input's %d", phase, len(out), len(want))
		}
		if sb.granted != 0 || store.liveRuns() != 0 {
			t.Fatalf("phase %d: %d pages granted, %d runs live", phase, sb.granted, store.liveRuns())
		}
	}
}

// partyBroker is one party to a shared handle that checks, at each grant,
// that the parties together hold no more than the handle's target, and
// counts the grants made while its rival held pages too.
type partyBroker struct {
	*memarb.Handle
	t            *testing.T
	whole, rival *memarb.Handle
	both         *int
}

func (b *partyBroker) Acquire(n int) int {
	got := b.Handle.Acquire(n)
	if g, tg := b.whole.Granted(), b.whole.Target(); g > tg {
		b.t.Errorf("the parties hold %d pages on a %d-page handle", g, tg)
	}
	if b.Granted() > 0 && b.rival.Granted() > 0 {
		*b.both++
	}
	return got
}

// streamInput serves a Stream's pages as an Input, each a copy: the
// Stream's pages are its own again at its next call.
type streamInput struct{ s *Stream }

func (in streamInput) NextPage() (Page, bool, error) {
	pg, ok, err := in.s.NextPage()
	return slices.Clone(pg), ok, err
}

// TestStreamFeedsASortThroughOneBroker: a two-worker sort's held last step
// feeds a second sort, on one 8-page handle shared by parties — the first
// sort, the Stream of its step, the second sort — each a Broker wrapper that
// checks at every grant that the parties together stay within the handle.
// Both hold pages at once, and the output is exact.
func TestStreamFeedsASortThroughOneBroker(t *testing.T) {
	recs := makeRecords(6400, 67)
	want := slices.Clone(recs)
	slices.SortFunc(want, cmpRecords)
	whole := newTestBudget(8).Handle
	inner, stream, outer := whole.Join(), whole.Join(), whole.Join()
	both := 0
	store := newSafeStore()
	cfg := SortConfig{Method: Repl, BlockPages: 6, Merge: OptMerge, Adapt: DynSplit, PageRecords: 32, MinPages: 3, MergeBlockPages: 6, Workers: 2}
	env := &Env{In: &sliceInput{pages: pagesOf(recs, 32)}, Store: store, Ctx: context.Background(), StreamLast: true,
		Mem: &partyBroker{Handle: inner, t: t, whole: whole, rival: outer, both: &both}}
	res, err := ExternalSort(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner.Leave()
	if res.Stats.Workers != 2 || res.Last == nil {
		t.Fatalf("%d workers, held step %v: want 2 and a held step", res.Stats.Workers, res.Last != nil)
	}
	s := res.Last.Stream(&partyBroker{Handle: stream, t: t, whole: whole, rival: outer, both: &both})
	cfg.Method, cfg.Workers = Quick, 1 // the sorted stream cut into memory-sized runs: a merge
	out, err := ExternalSort(&Env{In: streamInput{s}, Store: store, Ctx: context.Background(), StreamLast: true,
		Mem: &partyBroker{Handle: outer, t: t, whole: whole, rival: stream, both: &both}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream.Leave()
	if err := res.Last.Close(); err != nil {
		t.Fatal(err)
	}
	if out.Stats.Runs < 2 || both == 0 {
		t.Fatalf("the second sort wrote %d runs, and %d grants found both parties holding pages: want a merge, and some", out.Stats.Runs, both)
	}
	got := sortOutput(t, store, out, outer)
	if !slices.EqualFunc(got, want, func(a, b Record) bool { return cmpRecords(a, b) == 0 }) {
		t.Fatalf("%d records out, want the sorted %d", len(got), len(want))
	}
	if whole.Granted() != 0 {
		t.Fatalf("%d pages granted at the end", whole.Granted())
	}
}
