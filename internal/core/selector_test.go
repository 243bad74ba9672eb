package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/memadapt/masort/internal/randx"
)

// ---- differential fuzzing: batched selector vs classic heap ----

var fuzzPayloads = [][]byte{nil, {}, []byte("a"), []byte("a"), []byte("ab"), []byte("b")}

// burstRecords builds one push burst: n records shaped by the shape byte.
// The low three bits pick the key pattern, the next two the payload
// pattern.
func burstRecords(n int, shape byte, serial uint64) []Record {
	rng := randx.New(uint64(shape)<<32|serial, "fuzz-burst")
	recs := make([]Record, n)
	base := rng.Uint64() >> 1
	for i := range recs {
		var k Key
		switch shape & 7 {
		case 0: // uniform
			k = rng.Uint64()
		case 1: // presorted
			k = base + uint64(i)*3
		case 2: // reverse
			k = base - uint64(i)*3
		case 3: // all equal
			k = base
		case 4: // few distinct, narrow range
			k = base + rng.Uint64()%5
		case 5: // sawtooth
			k = base + uint64(i%17)*1000
		case 6: // one far outlier squeezes everything else into one bucket
			k = rng.Uint64() % 4096
			if i == n/2 {
				k = ^uint64(0)
			}
		default: // duplicates of a 64-key sample spread over the key space
			k = (rng.Uint64() % 64) * 0x9e3779b97f4a7c15
		}
		recs[i].Key = k
		switch shape >> 3 & 3 {
		case 1: // equal payloads
			recs[i].Payload = fuzzPayloads[2]
		case 2: // mixed, including nil vs empty and equal bytes in distinct slices
			recs[i].Payload = fuzzPayloads[rng.Uint64()%uint64(len(fuzzPayloads))]
		case 3: // distinct
			recs[i].Payload = []byte{byte(i), byte(i >> 8)}
		}
	}
	return recs
}

// runSelectionScript decodes data into an interleaving of add bursts (two
// bytes: size, shape) and pop bursts (one byte), drives both selectors the
// way replSplit does and fails on the first divergence. The classic heap
// tags a record when it is added, the batched selector when the burst is
// entered at a split point, so a burst's shape byte also picks the frontier
// it is tagged by (its top three bits):
//
//	0    the current run's last popped record, entered with the bursts
//	     after it at the next pop (a one-worker fill of several pages)
//	1    none: the current run has no record yet, all of it is the suffix
//	2    above every record: all of it is the prefix, for the next run
//	3    the burst's middle record: a split inside it, whose key ties
//	     break on the payload
//	4    the middle record's key with the smallest payload: a split at a
//	     key tie
//
// and bursts other than 0 are entered at once. Keys and payloads come from
// a generator seeded by the shape byte, so a corpus entry stays a few
// bytes however long its bursts are.
func runSelectionScript(t *testing.T, data []byte) {
	t.Helper()
	next := func() (b byte, ok bool) {
		if len(data) == 0 {
			return 0, false
		}
		b, data = data[0], data[1:]
		return b, true
	}
	batched, classic := selector(newBatchSelector()), selector(&rsHeap{})
	var f frontier // the current run and its last popped record
	pending := false
	var serial uint64
	pop := func(n int) {
		if pending {
			batched.enter(f)
			pending = false
		}
		for n > 0 && classic.Len() > 0 {
			if br, cr := batched.PeekRun(), classic.PeekRun(); br != cr {
				t.Fatalf("PeekRun: batched %d, classic %d", br, cr)
			}
			if tag := classic.PeekRun(); tag != f.tag {
				if tag != f.tag+1 {
					t.Fatalf("next tag %d after run %d", tag, f.tag)
				}
				f = frontier{tag: tag}
			}
			room := min(n, 7)
			b := batched.PopRun(f.tag, make(Page, 0, room))
			c := classic.PopRun(f.tag, make(Page, 0, room))
			if !slices.EqualFunc(b, c, func(x, y Record) bool { return x.Key == y.Key && bytes.Equal(x.Payload, y.Payload) }) {
				t.Fatalf("pops diverged: batched %v, classic %v", b, c)
			}
			if len(c) == 0 {
				t.Fatalf("PopRun(%d) popped nothing from %d records", f.tag, classic.Len())
			}
			f.last, f.open = c[len(c)-1], true
			n -= len(c)
		}
	}
	for {
		op, ok := next()
		if !ok {
			break
		}
		if op&0x80 == 0 {
			shape, _ := next()
			n := int(op&0x3f) + 1
			if op&0x40 != 0 {
				n *= 40 // up to 2560: past the scatter threshold and past maxStage
			}
			serial++
			recs := burstRecords(n, shape, serial)
			bf, mode := f, shape>>5
			switch mode {
			case 1:
				bf.open = false
			case 2:
				bf.last, bf.open = Record{Key: ^Key(0), Payload: []byte{0xff, 0xff, 0xff}}, true
			case 3:
				bf.last, bf.open = recs[n/2], true
			case 4:
				bf.last, bf.open = Record{Key: recs[n/2].Key}, true
			}
			split := mode >= 1 && mode <= 4
			if split && pending {
				batched.enter(f)
				pending = false
			}
			for len(recs) > 0 {
				pg := Page(recs[:min(len(recs), 5)])
				recs = recs[len(pg):]
				batched.add(pg, bf)
				classic.add(pg, bf)
			}
			if split {
				batched.enter(bf)
			} else {
				pending = true
			}
		} else {
			n := int(op&0x3f) + 1
			if op&0x40 != 0 {
				n *= 40
			}
			pop(n)
		}
		if batched.Len() != classic.Len() {
			t.Fatalf("Len: batched %d, classic %d", batched.Len(), classic.Len())
		}
	}
	pop(classic.Len())
	if batched.Len() != 0 {
		t.Fatalf("batched selector holds %d records after the drain", batched.Len())
	}
	for _, s := range []selector{batched, classic} {
		s.TakeCompares()
		if c := s.TakeCompares(); c != 0 {
			t.Fatalf("%T: TakeCompares did not reset (%d)", s, c)
		}
	}
}

// FuzzSelection is the differential oracle for the batched selector: any
// interleaving of push and pop bursts must pop the same (run, key, payload)
// sequence from it as from the classic heap, with equal Len throughout.
// The seeds below and testdata/fuzz/FuzzSelection run under plain go test.
func FuzzSelection(f *testing.F) {
	for shape := 0; shape < 8; shape++ {
		for _, pay := range []int{0, 1, 2, 3} {
			sh := byte(shape | pay<<3)
			// small burst, large burst, pops between, refill, drain
			f.Add([]byte{0x05, sh, 0x83, 0x7f, sh, 0xc8, 0x4f, sh | 0x20, 0xff, 0x10, sh | 0xe0})
		}
	}
	// replSplit's own rhythm: fill, then block-sized pop/push rounds.
	rounds := []byte{0x7f, 0x00, 0x7f, 0x08}
	for i := 0; i < 12; i++ {
		rounds = append(rounds, 0xe6, 0x66, byte(i))
	}
	f.Add(rounds)
	// tiny pages: four-record bursts, so the tree grows leaf by leaf
	tiny := []byte{}
	for i := 0; i < 80; i++ {
		tiny = append(tiny, 0x03, byte(i), 0x81)
	}
	f.Add(tiny)
	// one burst per split point — none, all suffix, all prefix, middle, key
	// tie — between pops, at small and large sizes
	for mode := byte(0); mode <= 4; mode++ {
		for _, sh := range []byte{0x00, 0x0b, 0x14, 0x1c} {
			sh |= mode << 5
			f.Add([]byte{0x3f, sh &^ 0xe0, 0x90, 0x20, sh, 0x85, 0x47, sh, 0xc2, 0x05, sh, 0xff, 0xff})
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("long scripts only repeat what short ones cover")
		}
		runSelectionScript(t, data)
	})
}

// ---- run identity over replSplit ----

func shapedRecords(shape string, n int, seed uint64) []Record {
	rng := randx.New(seed, "shape-"+shape)
	recs := make([]Record, n)
	for i := range recs {
		switch shape {
		case "random":
			recs[i].Key = rng.Uint64()
		case "presorted":
			recs[i].Key = uint64(i) * 7
		case "reverse":
			recs[i].Key = uint64(n-i) * 7
		case "few-distinct":
			recs[i].Key = rng.Uint64() % 8
		case "sawtooth":
			recs[i].Key = uint64(i%997) * 1_000_003
		}
		if i%3 == 0 {
			recs[i].Payload = []byte{byte(rng.Uint64() % 4)}
		}
	}
	return recs
}

// splitWith runs replSplit on one selector — the classic heap or the
// batched one — and returns everything the rest of the engine can observe
// of it.
func splitWith(t *testing.T, classic bool, recs []Record, cfg SortConfig, total int, script []targetChange) (runs []*runInfo, store *memStore, st *SortStats, compares int64) {
	t.Helper()
	env, store, broker, meter := testEnv(t, recs, cfg.PageRecords, total, 3)
	env.ClassicSelection = classic
	broker.script = slices.Clone(script)
	st = &SortStats{}
	runs, err := replSplit(env, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(broker.script) > 0 {
		t.Fatalf("split ended at tick %d with %d budget changes still to come", broker.ticks, len(broker.script))
	}
	return runs, store, st, meter.counts[OpCompare]
}

// TestReplSplitSelectorIdentity: the batched selector and the classic heap
// must produce the same runs — count, pages, records — and the batched one
// must never charge more comparisons.
func TestReplSplitSelectorIdentity(t *testing.T) {
	const total = 24
	schedules := map[string][]targetChange{
		"static": nil,
		"fluct":  {{300, 8}, {700, 24}, {1100, 5}, {1500, 16}, {2000, 3}, {2300, 24}},
	}
	for _, blockPages := range []int{1, 6} {
		for _, pageRecords := range []int{4, 256} {
			for sched, script := range schedules {
				for _, shape := range []string{"random", "presorted", "reverse", "few-distinct", "sawtooth"} {
					name := fmt.Sprintf("block%d/page%d/%s/%s", blockPages, pageRecords, sched, shape)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.Method = Repl
						cfg.BlockPages = blockPages
						cfg.PageRecords = pageRecords
						recs := shapedRecords(shape, 500*pageRecords+pageRecords/2, 11)
						cRuns, cStore, cSt, cCmp := splitWith(t, true, recs, cfg, total, script)
						bRuns, bStore, bSt, bCmp := splitWith(t, false, recs, cfg, total, script)
						if len(bRuns) != len(cRuns) || *bSt != *cSt {
							t.Fatalf("runs %d vs %d, stats %+v vs %+v", len(bRuns), len(cRuns), *bSt, *cSt)
						}
						for i := range cRuns {
							b, c := bRuns[i], cRuns[i]
							if b.pages != c.pages || b.tuples != c.tuples {
								t.Fatalf("run %d: pages %d/%d tuples %d/%d differ", i, b.pages, c.pages, b.tuples, c.tuples)
							}
							br, cr := runRecords(t, bStore, b.id), runRecords(t, cStore, c.id)
							if !slices.EqualFunc(br, cr, func(x, y Record) bool {
								return x.Key == y.Key && bytes.Equal(x.Payload, y.Payload)
							}) {
								t.Fatalf("run %d: record sequences differ", i)
							}
						}
						if bStore.appends != cStore.appends {
							t.Fatalf("batched selector: %d appends, classic %d", bStore.appends, cStore.appends)
						}
						if bCmp > cCmp {
							t.Fatalf("batched selector charged %d comparisons, classic heap %d", bCmp, cCmp)
						}
						t.Logf("compares/record: batched %.2f, classic %.2f", float64(bCmp)/float64(len(recs)), float64(cCmp)/float64(len(recs)))
					})
				}
			}
		}
	}
}

// ---- memory contract ----

// chunkSlots counts the record slots the selector retains: live mini-run
// chunks, the burst's chunks and the free list.
func (s *batchSelector) chunkSlots() int {
	n := s.pool.n + len(s.next.chunks)
	for _, m := range s.runs {
		for c := m.c; c != nil; c = c.next {
			n++
		}
	}
	return n * chunkRecs
}

// TestBatchSelectorFootprintFollowsGrant drives the selector the way
// replSplit does under a sort_file_fluct-style schedule (levels in [16, 64]
// pages, 6-page blocks, 256 records a page) that settles on its floor, and
// checks that the retained storage came down with the grant.
func TestBatchSelectorFootprintFollowsGrant(t *testing.T) {
	const R, block = 256, 6
	s := newBatchSelector()
	rng := randx.New(5, "footprint")
	var f frontier
	push := func(n int) {
		pg := make(Page, 0, R)
		for ; n > 0; n-- {
			if pg = append(pg, Record{Key: rng.Uint64()}); len(pg) == R || n == 1 {
				s.add(pg, f)
				pg = make(Page, 0, R)
			}
		}
	}
	pop := func(n int) {
		s.enter(f)
		for n > 0 && s.Len() > 0 {
			if tag := s.PeekRun(); tag != f.tag {
				f = frontier{tag: tag}
			}
			got := s.PopRun(f.tag, make(Page, 0, min(n, R)))
			f.last, f.open = got[len(got)-1], true
			n -= len(got)
		}
	}
	peak, live, slots := 0, 0, 0
	for _, pages := range []int{64, 30, 50, 16, 44, 23, 57, 37, 64, 16} {
		for round := 0; round < 40; round++ {
			if over := s.Len() - pages*R; over > 0 {
				pop(over)
			}
			push(pages*R - s.Len())
			s.enter(f) // the grant is full, the fullest point of a round
			live, slots = s.Len(), s.chunkSlots()
			peak = max(peak, slots)
			pop(block * R)
		}
	}
	t.Logf("settled at 16 pages: %d live entries, %d chunk slots (peak %d), scratch %d+%d entries",
		live, slots, peak, cap(s.next.stage), cap(s.next.sorted))
	if peak < 64*R {
		t.Fatalf("peak %d slots: the schedule never filled 64 pages", peak)
	}
	if slots > 2*live {
		t.Fatalf("retained %d record slots for %d live entries (> 2x)", slots, live)
	}
	if scratch := cap(s.next.stage) + cap(s.next.sorted); scratch > 2*2*maxStage {
		t.Fatalf("sort scratch grew to %d entries; it is bounded by maxStage", scratch)
	}
}

// BenchmarkSelection drives each selector in replSplit's steady-state
// rhythm at masbench's geometry — 64 pages of 256 records, uniform keys
// with a 16-byte payload — under the paper's repl6 and repl1 block sizes.
func BenchmarkSelection(b *testing.B) {
	const R, pages = 256, 64
	rng := randx.New(1, "bench-selection")
	pool := make([]byte, 1<<20)
	recs := make([]Record, 1<<21)
	for i := range recs {
		off := int(rng.Uint64() % uint64(len(pool)-16))
		recs[i] = Record{Key: rng.Uint64(), Payload: pool[off : off+16 : off+16]}
	}
	for _, tc := range []struct {
		name    string
		classic bool
		block   int
	}{{"classic/repl6", true, 6}, {"batched/repl6", false, 6}, {"classic/repl1", true, 1}, {"batched/repl1", false, 1}} {
		classic, block := tc.classic, tc.block
		b.Run(tc.name, func(b *testing.B) {
			s := (&Env{ClassicSelection: classic}).newSelector()
			var f frontier
			next := 0
			out := make(Page, 0, R)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				for s.Len() < pages*R {
					pg := recs[next%len(recs):][:R]
					next += R
					s.add(pg, f)
				}
				s.enter(f)
				for n := block * R; n > 0; {
					if s.PeekRun() != f.tag {
						f = frontier{tag: f.tag + 1}
					}
					got := s.PopRun(f.tag, out[:0:min(n, R)])
					f.last, f.open = got[len(got)-1], true
					n -= len(got)
					done += len(got)
				}
			}
			b.ReportMetric(float64(s.TakeCompares())/float64(b.N), "compares/op")
		})
	}
}
