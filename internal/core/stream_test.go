package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/memadapt/masort/internal/memarb"
	"github.com/memadapt/masort/internal/randx"
)

// countingStore counts the pages its store is asked to write and to read,
// and keeps each run's size as written.
type countingStore struct {
	RunStore
	written, read int
	sizes         map[RunID]oracleRun
}

func (c *countingStore) Append(id RunID, pages []Page) (Token, error) {
	c.written += len(pages)
	if c.sizes == nil {
		c.sizes = map[RunID]oracleRun{}
	}
	sz := c.sizes[id]
	for _, pg := range pages {
		sz.pages++
		sz.tuples += len(pg)
	}
	c.sizes[id] = sz
	return c.RunStore.Append(id, pages)
}

func (c *countingStore) ReadAsync(id RunID, page int) PageToken {
	c.read++
	return c.RunStore.ReadAsync(id, page)
}

// oracleRun is a run's size: pages, and the records on them.
type oracleRun struct{ pages, tuples int }

// planIO is the oracle of a merge plan under a constant m-page budget: the
// pages its steps read and the pages its preliminary steps write, when each
// preliminary step takes the shortest runs first (a stable sort by pages,
// as pickRuns) and writes them full pages of r records but the last. The
// last step merges up to m-1 runs when it writes the output, m when it hands
// its records to a consumer (held). The first step takes just enough runs
// that every later step is full; outFirst puts a step's output before the
// runs left, as a dynamic plan's chain does, instead of after them, as a
// static plan's pool does.
func planIO(runs []oracleRun, m, r int, held, outFirst bool) (reads, writes int) {
	last := m - 1
	if held {
		last = m
	}
	pool := slices.Clone(runs)
	for len(pool) > last {
		k := (len(pool)-last-1)%(m-2) + 2
		idx := make([]int, len(pool))
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int { return pool[a].pages - pool[b].pages })
		var out oracleRun
		take := map[int]bool{}
		for _, i := range idx[:k] {
			take[i] = true
			out.tuples += pool[i].tuples
			reads += pool[i].pages
		}
		out.pages = (out.tuples + r - 1) / r
		writes += out.pages
		var rest []oracleRun
		for i, run := range pool {
			if !take[i] {
				rest = append(rest, run)
			}
		}
		if outFirst {
			pool = append([]oracleRun{out}, rest...)
		} else {
			pool = append(rest, out)
		}
	}
	for _, run := range pool {
		reads += run.pages
	}
	return reads, writes
}

// TestHeldLastStepSavesExactlyItsOutput: under a fixed budget, a sort or a
// merge whose last step is held back (Env.StreamLast) and run by a Stream
// makes the page operations the oracle's plan with a held last step makes,
// and the materialising one — the operation followed by a drain of its
// result run — those of the oracle's plan with a stored last step plus its
// output written and read back. So holding the step saves exactly its
// output, Pages written and Pages read, and the preliminary pages the
// oracle says the last step's free output slot saves; the records are the
// same. And what the store saw is what the streamed operation's stats count.
func TestHeldLastStepSavesExactlyItsOutput(t *testing.T) {
	const r, m = 8, 12
	recs := makeRecords(3000, 7)
	saved := 0 // preliminary pages the held plans saved, over all cases
	for _, op := range []string{"sort", "merge"} {
		for _, ad := range []Adapt{Suspend, Paging, DynSplit} {
			cfg := SortConfig{Method: Quick, BlockPages: 1, Merge: OptMerge, Adapt: ad, PageRecords: r, MergeBlockPages: 6}
			// run performs the operation and its drain on a fresh store,
			// counting both, and returns what the drain read, the stats
			// and the sizes of the runs the merge phase started from.
			run := func(hold bool) (*countingStore, []Record, int, SortStats, []oracleRun) {
				env, store, _, _ := testEnv(t, recs, r, m, 3)
				cs := &countingStore{RunStore: store}
				var ids []RunID
				if op == "merge" {
					for i := range 20 {
						part := slices.Clone(recs[i*150 : (i+1)*150])
						slices.SortFunc(part, compareRecords)
						w, err := WriteRun(&Env{Store: cs, In: &sliceInput{pages: pagesOf(part, r)}}, 1)
						if err != nil {
							t.Fatal(err)
						}
						ids = append(ids, w.Result)
					}
					cs.written = 0
				}
				var inputs []oracleRun
				env.SetPhase = func(p string) {
					if p != "merge" {
						return
					}
					// The split's runs, in the order it made them.
					for id := range RunID(len(store.runs)) {
						if !store.freed[id] {
							inputs = append(inputs, cs.sizes[id])
						}
					}
				}
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
					for {
						rec, ok, err := s.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						out = append(out, rec)
					}
					st, pages = s.Stats(), (len(out)+r-1)/r
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
				return cs, out, pages, st, inputs
			}
			t.Run(op+"/"+cfg.Notation(), func(t *testing.T) {
				mat, matOut, pages, _, runs := run(false)
				held, heldOut, heldPages, st, _ := run(true)
				if !slices.EqualFunc(matOut, heldOut, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
					t.Fatal("the held step produced other records than the materialised result")
				}
				checkSorted(t, heldOut)
				dyn := ad == DynSplit
				matR, matW := planIO(runs, m, r, false, dyn)
				heldR, heldW := planIO(runs, m, r, true, dyn)
				split := st.RunPagesWritten
				if heldPages != pages || mat.written != split+matW+pages || mat.read != matR+pages ||
					held.written != split+heldW || held.read != heldR {
					t.Fatalf("%d runs: materialised %d pages out, %d written, %d read, oracle %d + %d + %d written, %d + %d read;\n"+
						"held %d pages out, %d written, %d read, oracle %d + %d written, %d read",
						len(runs), pages, mat.written, mat.read, split, matW, pages, matR, pages,
						heldPages, held.written, held.read, split, heldW, heldR)
				}
				if n := st.RunPagesWritten + st.MergePagesRead + st.MergePagesWritten; n != held.written+held.read {
					t.Fatalf("stats count %d page operations, the store saw %d", n, held.written+held.read)
				}
				saved += matR + matW - heldR - heldW
			})
		}
	}
	if saved <= 0 {
		t.Fatalf("the held plans saved %d preliminary pages: the free output slot was never exercised", saved)
	}
}

// minMergeReads is the exhaustive minimum of the pages a merge of runs of
// the given page counts reads under an m-page budget, over every plan whose
// preliminary steps merge 2 to m-1 runs and whose last step, which hands its
// records to a consumer, merges up to m.
func minMergeReads(pages []int, m int) int {
	memo := map[string]int{}
	var best func([]int) int
	best = func(runs []int) int {
		total := 0
		for _, p := range runs {
			total += p
		}
		if len(runs) <= m {
			return total
		}
		slices.Sort(runs)
		key := fmt.Sprint(runs)
		if v, ok := memo[key]; ok {
			return v
		}
		min := -1
		for mask := 1; mask < 1<<len(runs); mask++ {
			k := bits.OnesCount(uint(mask))
			if k < 2 || k > m-1 {
				continue
			}
			var rest []int
			merged := 0
			for i, p := range runs {
				if mask&(1<<i) != 0 {
					merged += p
				} else {
					rest = append(rest, p)
				}
			}
			if v := merged + best(append(rest, merged)); min < 0 || v < min {
				min = v
			}
		}
		memo[key] = min
		return min
	}
	return best(slices.Clone(pages))
}

// TestHeldPlanIsMinimal: under a constant budget, a held merge plan — its
// preliminary steps and the last step a Stream runs — reads exactly the
// fewest pages any plan could, on random sets of up to 9 runs of whole pages
// under budgets of 3 to 6 pages, for dynamic splitting and for both static
// strategies.
func TestHeldPlanIsMinimal(t *testing.T) {
	const r = 4
	rng := randx.New(5, "held-plan")
	for trial := range 400 {
		m := 3 + rng.IntN(4)
		pages := make([]int, 2+rng.IntN(8))
		for i := range pages {
			pages[i] = 1 + rng.IntN(8)
		}
		want, total := minMergeReads(pages, m), 0
		for _, p := range pages {
			total += p
		}
		for _, ad := range []Adapt{Suspend, Paging, DynSplit} {
			store := newMemStore()
			var ids []RunID
			for i, p := range pages {
				recs := makeRecords(p*r, uint64(trial*16+i))
				slices.SortFunc(recs, compareRecords)
				w, err := WriteRun(&Env{Store: store, In: &sliceInput{pages: pagesOf(recs, r)}}, 1)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, w.Result)
			}
			mem := newScriptedBroker(t, m, 3)
			env := &Env{Store: store, Mem: mem, StreamLast: true}
			cfg := SortConfig{Merge: OptMerge, Adapt: ad, PageRecords: r, MergeBlockPages: 6}
			res, err := MergeExisting(env, cfg, ids)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Last.Stream(mem)
			out := drainStream(t, s)
			if err := res.Last.Close(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.MergePagesRead != want || len(out) != total*r || st.ExtraMergeReads != 0 {
				t.Fatalf("%s, %d runs of %v pages under %d pages: the held plan read %d pages (%d again) in %d steps, the fewest is %d; %d records out of %d",
					cfg.Notation(), len(pages), pages, m, st.MergePagesRead, st.ExtraMergeReads, st.MergeSteps, want, len(out), total*r)
			}
			if mem.granted != 0 || store.liveRuns() != 0 {
				t.Fatalf("%d pages granted, %d runs live", mem.granted, store.liveRuns())
			}
		}
	}
}

// drainStream runs s to its end and returns its records.
func drainStream(t *testing.T, s *Stream) []Record {
	t.Helper()
	var out []Record
	for {
		rec, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// streamAll runs l to its end on mem, returns its records and closes l.
func streamAll(t *testing.T, l *LastStep, mem Broker) []Record {
	t.Helper()
	out := drainStream(t, l.Stream(mem))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return out
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
	slices.SortFunc(want, compareRecords)
	cfg := SortConfig{Method: Quick, BlockPages: 1, Merge: OptMerge, Adapt: DynSplit, PageRecords: 8, MergeBlockPages: 6}
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
		if !slices.EqualFunc(out, want, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
			t.Fatalf("phase %d: the held step produced %d records, not the sorted input's %d", phase, len(out), len(want))
		}
		if sb.granted != 0 || store.liveRuns() != 0 {
			t.Fatalf("phase %d: %d pages granted, %d runs live", phase, sb.granted, store.liveRuns())
		}
	}
}

// partyBroker is one operator of a shared arbiter that checks, at each
// grant, that the operators together hold no more than the arbiter's total,
// and counts the grants made while its rival held pages too.
type partyBroker struct {
	*memarb.Handle
	t     *testing.T
	arb   *memarb.Arbiter
	rival *memarb.Handle
	both  *int
}

func (b *partyBroker) Acquire(n int) int {
	got := b.Handle.Acquire(n)
	if s := b.arb.Snapshot(); s.Free < 0 {
		b.t.Errorf("the operators hold %d pages on a %d-page arbiter", s.Total-s.Free, s.Total)
	}
	if b.Granted() > 0 && b.rival.Granted() > 0 {
		*b.both++
	}
	return got
}

// streamInput serves a Stream's records as an Input, gathered into pages of
// r records.
type streamInput struct {
	s *Stream
	r int
}

func (in streamInput) NextPage() (Page, bool, error) {
	var pg Page
	for len(pg) < in.r {
		rec, ok, err := in.s.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		pg = append(pg, rec)
	}
	return pg, len(pg) > 0, nil
}

// TestStreamFeedsASortThroughOneBroker: a sort's held last step
// feeds a second sort on one 8-page budget, each sort an operator of its
// arbiter — the first sort's Stream runs on the first sort's handle — and
// each a Broker wrapper that checks at every grant that the operators
// together stay within the total. Both hold pages at once, and the output
// is exact.
func TestStreamFeedsASortThroughOneBroker(t *testing.T) {
	recs := makeRecords(6400, 67)
	want := slices.Clone(recs)
	slices.SortFunc(want, compareRecords)
	budget := newTestBudget(8)
	inner := budget.Handle
	both := 0
	store := newMemStore()
	cfg := SortConfig{Method: Repl, BlockPages: 6, Merge: OptMerge, Adapt: DynSplit, PageRecords: 32, MergeBlockPages: 6}
	outer, _ := budget.arb.Register(context.Background(), false)
	mem := &partyBroker{Handle: inner, t: t, arb: budget.arb, rival: outer, both: &both}
	env := &Env{In: &sliceInput{pages: pagesOf(recs, 32)}, Store: store, Ctx: context.Background(), StreamLast: true, Mem: mem}
	res, err := ExternalSort(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Last == nil {
		t.Fatal("no held step")
	}
	s := res.Last.Stream(mem)
	cfg.Method = Quick // the sorted stream cut into memory-sized runs: a merge
	out, err := ExternalSort(&Env{In: streamInput{s, 32}, Store: store, Ctx: context.Background(), StreamLast: true,
		Mem: &partyBroker{Handle: outer, t: t, arb: budget.arb, rival: inner, both: &both}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner.Leave()
	if err := res.Last.Close(); err != nil {
		t.Fatal(err)
	}
	if out.Stats.Runs < 2 || both == 0 {
		t.Fatalf("the second sort wrote %d runs, and %d grants found both operators holding pages: want a merge, and some", out.Stats.Runs, both)
	}
	got := sortOutput(t, store, out, outer)
	if !slices.EqualFunc(got, want, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
		t.Fatalf("%d records out, want the sorted %d", len(got), len(want))
	}
	outer.Leave()
	if s := budget.arb.Snapshot(); s.Free != s.Total {
		t.Fatalf("%d pages granted at the end", s.Total-s.Free)
	}
}

// BenchmarkStreamDrain drains a held 64-way last step from the in-memory
// store: every record of 64 runs of 16 pages, 32 records a page, handed to
// the caller straight from the step's loser tree. It reports ns/record
// beside allocs/op; the step is merged afresh each op from the same runs.
func BenchmarkStreamDrain(b *testing.B) {
	const runs, pages, r = 64, 16, 32
	store := newMemStore()
	var ids []RunID
	for i := range runs {
		recs := makeRecords(pages*r, uint64(i))
		slices.SortFunc(recs, compareRecords)
		w, err := WriteRun(&Env{Store: store, In: &sliceInput{pages: pagesOf(recs, r)}}, 1)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, w.Result)
	}
	// 65 pages hold the 64 inputs whether or not the step also takes an
	// output page.
	mem := newScriptedBroker(b, runs+1, 3)
	res, err := MergeExisting(&Env{Store: store, Mem: mem, StreamLast: true},
		SortConfig{Merge: OptMerge, Adapt: DynSplit, PageRecords: r, MergeBlockPages: 6}, ids)
	if err != nil {
		b.Fatal(err)
	}
	if res.Last == nil || len(res.Last.runs) != runs {
		b.Fatal("no 64-way held step")
	}
	b.ReportAllocs()
	b.ResetTimer()
	n, sum := 0, Key(0)
	for range b.N {
		s := res.Last.Stream(mem)
		for {
			rec, ok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
			sum += rec.Key
		}
	}
	if n != b.N*runs*pages*r || sum == 0 {
		b.Fatalf("%d records drained, want %d", n, b.N*runs*pages*r)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/record")
}
