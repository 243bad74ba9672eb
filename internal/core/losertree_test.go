package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/memadapt/masort/internal/randx"
)

// ---- differential fuzzing: the merge's loser tree vs the counted heap ----

// fuzzRun decodes one sorted run from two bytes: a length in [0, 24] and a
// shape. Keys come from a four-letter alphabet and payloads from the six
// fuzzPayloads (nil, empty, and equal bytes in distinct slices among them),
// so key ties, payload ties and fully equal records are the common case.
// Records below floor are left out: what a combine absorbs never sorts
// before what the merge has already emitted.
func fuzzRun(length, shape byte, serial uint64, floor *Record) []Record {
	rng := randx.New(uint64(shape)<<32|serial, "fuzz-merge-run")
	var recs []Record
	for n := int(length) % 25; n > 0; n-- {
		rec := Record{Key: rng.Uint64() % 4}
		if shape&1 == 0 {
			rec.Payload = fuzzPayloads[rng.IntN(len(fuzzPayloads))]
		}
		if shape&2 != 0 {
			rec.Key *= 0x9e3779b97f4a7c15 // spread over the key space: the borrow chain sees high bits
		}
		if floor == nil || compareRecords(rec, *floor) >= 0 {
			recs = append(recs, rec)
		}
	}
	slices.SortFunc(recs, compareRecords)
	return recs
}

// headsDriver plays the merge loop's part against one runHeads: runs whose
// records sit in memory, a workspace record each, and the same calls
// produceOnePage, absorb and the rebuild make.
type headsDriver struct {
	hh   runHeads
	rest map[*runInfo][]Record // records behind each live run's workspace
	out  []Record
}

func (d *headsDriver) enter(recs []Record) {
	if len(recs) == 0 {
		return // a run that is dry from the start never enters
	}
	r := &runInfo{ws: recs[0], wsValid: true}
	d.rest[r] = recs[1:]
	d.hh.push(r)
}

// emit moves the minimum to the output and advances its run, which goes dry
// when nothing is left behind the workspace.
func (d *headsDriver) emit() bool {
	r := d.hh.min()
	if r == nil {
		return false
	}
	d.out = append(d.out, r.ws)
	if rest := d.rest[r]; len(rest) > 0 {
		r.ws, d.rest[r] = rest[0], rest[1:]
		d.hh.fixMin()
	} else {
		delete(d.rest, r)
		d.hh.popMin()
	}
	return true
}

// rebuild is invalidateHeap followed by the next page: every live run is
// pushed again, in an order of the script's choosing.
func (d *headsDriver) rebuild(rotate int) {
	live := make([]*runInfo, 0, len(d.rest))
	for r := range d.rest {
		live = append(live, r)
	}
	slices.SortFunc(live, func(a, b *runInfo) int { return compareRecords(a.ws, b.ws) })
	d.hh.reset(len(live))
	for i := range live {
		d.hh.push(live[(i+rotate)%len(live)])
	}
}

// runMergeScript decodes data into k runs (k in 1…130) and an interleaving of
// emit bursts, absorbs of new runs and rebuilds, drives the loser tree and
// the counted heap with it in lockstep, and checks every emitted record of
// the two against each other and the whole output against slices.SortFunc.
func runMergeScript(t *testing.T, data []byte) {
	t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var cmp int64
	tree := &headsDriver{hh: (&Env{}).newRunHeads(&cmp), rest: map[*runInfo][]Record{}}
	heap := &headsDriver{hh: (&Env{ClassicSelection: true}).newRunHeads(&cmp), rest: map[*runInfo][]Record{}}
	var all []Record
	var serial uint64
	enter := func(floor *Record) {
		serial++
		recs := fuzzRun(next(), next(), serial, floor)
		all = append(all, recs...)
		tree.enter(recs)
		heap.enter(recs)
	}
	emit := func() bool {
		tok, hok := tree.emit(), heap.emit()
		if tok != hok {
			t.Fatalf("after %d records: tree has a minimum: %v, heap: %v", len(heap.out), tok, hok)
		}
		if tok {
			a, b := tree.out[len(tree.out)-1], heap.out[len(heap.out)-1]
			if compareRecords(a, b) != 0 {
				t.Fatalf("record %d: tree emitted (%d,%q), heap (%d,%q)", len(heap.out)-1, a.Key, a.Payload, b.Key, b.Payload)
			}
		}
		return tok
	}
	k := int(next())%130 + 1
	tree.hh.reset(k)
	heap.hh.reset(k)
	for range k {
		enter(nil)
	}
	for len(data) > 0 {
		switch op := next(); op >> 6 {
		case 0, 1: // emit up to 128 records
			for n := int(op&0x7f) + 1; n > 0 && emit(); n-- {
			}
		case 2: // a combine's absorb: up to 64 new runs, none below the last emitted record
			var floor *Record
			if n := len(heap.out); n > 0 {
				floor = &heap.out[n-1]
			}
			for n := int(op&0x3f) + 1; n > 0; n-- {
				enter(floor)
			}
		default:
			tree.rebuild(int(op & 0x3f))
			heap.rebuild(int(op & 0x3f))
		}
	}
	for emit() {
	}
	slices.SortFunc(all, compareRecords)
	if !slices.EqualFunc(heap.out, all, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
		t.Fatalf("emitted %d records, entered %d, or not in (key, payload) order", len(heap.out), len(all))
	}
}

// FuzzMergeSelection is the differential oracle for the merge's and the
// join's selection structure: under any interleaving of advances, runs going
// dry, absorbed runs and rebuilds, the loser tree emits the record sequence
// the counted heap emits, and that sequence is the sorted one.
func FuzzMergeSelection(f *testing.F) {
	many := []byte{129} // 130 runs: the tree grows past 128 leaves
	for i := 0; i < 130; i++ {
		many = append(many, byte(i), byte(i))
	}
	f.Add(append(slices.Clone(many), 0x7f, 0xe3, 0x7f, 0x9f, 0x01, 0x02, 0x7f, 0xff, 0x7f))
	f.Add([]byte{0, 5, 1})                                  // one run: a tree of one leaf
	f.Add([]byte{1, 0, 0, 0, 0})                            // two runs, both dry from the start
	f.Add([]byte{2, 24, 1, 24, 1, 24, 1, 0x10, 0xc0, 0x10}) // no payloads, four keys: fully equal records
	f.Add([]byte{3, 9, 0, 9, 2, 9, 4, 9, 6, 0x05, 0x83, 7, 0, 7, 2, 7, 4, 7, 6, 0x05, 0xe1, 0x7f})
	f.Add([]byte{7, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 0x0b, 0xbf, 0x0b}) // absorb past the leaf count: the tree doubles
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			t.Skip("long scripts only repeat what short ones cover")
		}
		runMergeScript(t, data)
	})
}

// TestRunHeadsAllocateAtConstructionOnly: once the tree has seen its largest
// fan-in, no rebuild (a split, a combine, a blocked advance, the next step),
// no absorb and no run going dry allocates.
func TestRunHeadsAllocateAtConstructionOnly(t *testing.T) {
	var cmp int64
	hh := (&Env{}).newRunHeads(&cmp)
	runs := make([]*runInfo, 63)
	for i := range runs {
		runs[i] = &runInfo{ws: Record{Key: uint64(i*7919) % 64}, wsValid: true}
	}
	dry := make([]*runInfo, 0, len(runs))
	cycle := func() {
		for _, n := range []int{63, 31, 12, 63} { // steps and rebuilds of different fan-in
			hh.reset(n)
			for _, r := range runs[:n] {
				hh.push(r)
			}
			dry = dry[:0]
			for i := 0; i < n/2; i++ { // half the runs go dry ...
				hh.min().ws.Key += 3
				hh.fixMin()
				dry = append(dry, hh.min())
				hh.popMin()
			}
			for _, r := range dry { // ... and a combine's runs enter at the leaves they left
				hh.push(r)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("%v allocations per cycle of rebuilds and absorbs, want 0", allocs)
	}
}

// BenchmarkMergeSelection compares the two runHeads at a given fan-in over
// uniform random keys: one op is one record selected — take the minimum,
// move its run on, restore the order. compares/op is what the merge charges
// (the heap: every comparison made; the tree: ⌈log₂ fan-in⌉ per replay).
func BenchmarkMergeSelection(b *testing.B) {
	for _, fanIn := range []int{2, 8, 31, 63, 255} {
		for _, classic := range []bool{true, false} {
			name := "tree"
			if classic {
				name = "heap"
			}
			b.Run(fmt.Sprintf("%s/fanin%d", name, fanIn), func(b *testing.B) {
				rng := randx.New(1, "bench-merge-selection")
				var cmp int64
				hh := (&Env{ClassicSelection: classic}).newRunHeads(&cmp)
				hh.reset(fanIn)
				// Every run is an ascending walk with random strides as wide as
				// the window the runs start in, so where the advanced run lands
				// among the others — who is the minimum next — is unpredictable.
				strides := make([]uint64, 1<<16)
				for i := range strides {
					strides[i] = rng.Uint64() >> 40
				}
				for range fanIn {
					hh.push(&runInfo{ws: Record{Key: rng.Uint64() >> 40}, wsValid: true})
				}
				cmp = 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hh.min().ws.Key += strides[i&(len(strides)-1)]
					hh.fixMin()
				}
				b.ReportMetric(float64(cmp)/float64(b.N), "compares/op")
			})
		}
	}
}

// ---- examples the fuzz target cannot reach: the tree inside the engines ----

// dupRecords draws n records over `keys` distinct keys with payloads from a
// small alphabet: most records share their key with many others, and fully
// equal records occur.
func dupRecords(n, keys int, seed uint64) []Record {
	rng := randx.New(seed, "dup-records")
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(rng.IntN(keys)), Payload: []byte{byte('a' + rng.IntN(6)), byte('a' + rng.IntN(6))}}
	}
	return recs
}

// TestFenceCutPartitionsWithDuplicateKeys merges both key-range partitions
// of runs in which every key fills several pages of every run: the bounded
// clones run dry in the middle of a page (their leaf turns idle while the run
// still holds a buffer), the unbounded ones start in the middle of one, and
// nearly every comparison is a key tie broken on the workspace payloads. The
// concatenated partitions must be the (key, payload) order exactly.
func TestFenceCutPartitionsWithDuplicateKeys(t *testing.T) {
	const pageRecs = 8
	for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
		t.Run(fmt.Sprintf("a%d", adapt), func(t *testing.T) {
			store := newMemStore()
			var runs []*runInfo
			var all []Record
			for i := range 9 {
				recs := dupRecords(6*pageRecs, 5, uint64(i))
				slices.SortFunc(recs, compareRecords)
				r, err := newRun(store)
				if err != nil {
					t.Fatal(err)
				}
				w := runWriter{store: store}
				if err := w.append(r, pagesOf(recs, pageRecs)); err != nil {
					t.Fatal(err)
				}
				runs = append(runs, r)
				all = append(all, recs...)
			}
			cuts, fenced := fenceCuts(runs, 2)
			if !fenced || len(cuts) != 1 {
				t.Fatalf("cuts %v, fenced %v: want one cut", cuts, fenced)
			}
			midPage := 0
			for _, r := range runs {
				recs := runRecords(t, store, r.id)
				if i, _ := slices.BinarySearchFunc(recs, cuts[0], func(r Record, k Key) int { return compareRecords(r, Record{Key: k}) }); i%pageRecs != 0 {
					midPage++
				}
			}
			if midPage == 0 {
				t.Fatalf("cut %d falls on a page boundary of every run: nothing runs dry mid-page", cuts[0])
			}
			cfg := DefaultConfig()
			cfg.Adapt, cfg.PageRecords = adapt, pageRecs
			var got []Record
			for id := 0; id <= len(cuts); id++ {
				// 5 pages for up to 9 clones: every partition merges in steps.
				broker := newScriptedBroker(t, 5, 3)
				broker.script = []targetChange{{40, 4}, {90, 5}, {150, 3}, {220, 5}}
				env := &Env{Store: store, Mem: broker, Meter: newCountingMeter()}
				outs, err := mergePartition(env, cfg, &SortStats{}, runs, cuts, id)
				if err != nil {
					t.Fatal(err)
				}
				for _, out := range outs {
					got = append(got, runRecords(t, store, out.id)...)
				}
				if len(broker.script) > 0 {
					t.Fatalf("partition %d ended at tick %d with %d budget changes still to come", id, broker.ticks, len(broker.script))
				}
			}
			slices.SortFunc(all, compareRecords)
			if !slices.EqualFunc(got, all, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
				t.Fatalf("partitions hold %d records, want %d, or differ from the (key, payload) order", len(got), len(all))
			}
		})
	}
}

// TestJoinDuplicateKeysMatchesOracle joins two relations of a dozen keys
// under a fluctuating budget and checks the output record for record: within
// a key the left records arrive in payload order — the tree's tie-break across
// the left runs' workspaces — each against the right group in payload order.
func TestJoinDuplicateKeysMatchesOracle(t *testing.T) {
	l, r := dupRecords(500, 12, 31), dupRecords(300, 12, 32)
	var want []Record
	ls, rs := slices.Clone(l), slices.Clone(r)
	slices.SortFunc(ls, compareRecords)
	slices.SortFunc(rs, compareRecords)
	for _, x := range ls {
		for _, y := range rs {
			if x.Key == y.Key {
				want = append(want, Record{Key: x.Key, Payload: slices.Concat(x.Payload, y.Payload)})
			}
		}
	}
	for _, adapt := range []Adapt{Suspend, Paging, DynSplit} {
		cfg := DefaultConfig()
		cfg.Adapt, cfg.PageRecords = adapt, 8
		env, store, broker := joinEnv(t, 12, 3)
		// Two changes per split phase; the last four land in the merge phase.
		broker.script = []targetChange{{150, 5}, {400, 12}, {910, 4}, {960, 12}, {1010, 3}, {1060, 12}}
		res := runJoin(t, l, r, cfg, broker, env, store)
		got := runRecords(t, store, res.Result)
		if st := res.Stats; len(broker.script) > 0 || st.Suspensions+st.Splits+st.ExtraMergeReads == 0 {
			t.Fatalf("%s: the merge phase (ticks 840 to %d) did not adapt: %d budget changes left, stats %+v",
				cfg.Notation(), broker.ticks, len(broker.script), st.SortStats)
		}
		if !slices.EqualFunc(got, want, func(a, b Record) bool { return compareRecords(a, b) == 0 }) {
			t.Fatalf("%s: join output differs from the nested-loop oracle (%d vs %d records)", cfg.Notation(), len(got), len(want))
		}
	}
}
