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

// burst builds one push burst: n records shaped by the shape byte. The low
// three bits pick the key pattern, the next two the payload pattern.
func burst(n int, shape byte, serial uint64) []Record {
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

// runSelectionScript decodes data into an interleaving of push bursts (two
// bytes: size, shape) and pop bursts (one byte), drives both selectors with
// the same calls and fails on the first divergence. Keys and payloads come
// from a generator seeded by the shape byte, so a corpus entry stays a few
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
	cur := 0 // tag of the last popped record: pushes are tagged cur or cur+1
	var serial uint64
	pop := func() {
		if br, cr := batched.PeekRun(), classic.PeekRun(); br != cr {
			t.Fatalf("PeekRun: batched %d, classic %d", br, cr)
		}
		b, c := batched.Pop(), classic.Pop()
		if b.run != c.run || b.rec.Key != c.rec.Key || !bytes.Equal(b.rec.Payload, c.rec.Payload) {
			t.Fatalf("pop diverged: batched (%d,%d,%q), classic (%d,%d,%q)",
				b.run, b.rec.Key, b.rec.Payload, c.run, c.rec.Key, c.rec.Payload)
		}
		if b.run < cur {
			t.Fatalf("popped tag %d after tag %d", b.run, cur)
		}
		cur = b.run
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
				n *= 40 // up to 2560: past scatterMin and past maxStage
			}
			serial++
			for i, rec := range burst(n, shape, serial) {
				tag := cur + i&1
				if shape>>5 == 7 && i%5 == 0 {
					tag = cur + 2 // a third tag: the scatter must fall back
				}
				if shape>>5 == 1 {
					tag = cur
				}
				batched.Push(rsItem{run: tag, rec: rec})
				classic.Push(rsItem{run: tag, rec: rec})
			}
		} else {
			n := int(op&0x3f) + 1
			if op&0x40 != 0 {
				n *= 40
			}
			for ; n > 0 && classic.Len() > 0; n-- {
				pop()
			}
		}
		if batched.Len() != classic.Len() {
			t.Fatalf("Len: batched %d, classic %d", batched.Len(), classic.Len())
		}
	}
	for classic.Len() > 0 {
		pop()
		if batched.Len() != classic.Len() {
			t.Fatalf("Len while draining: batched %d, classic %d", batched.Len(), classic.Len())
		}
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

// splitWith runs replSplit under one selector and returns everything the
// rest of the engine can observe of it.
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
// must produce the same runs — count, pages, records — and the
// batched one must never charge more comparisons.
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
// chunks, the staged burst's chunks and the free list.
func (s *batchSelector) chunkSlots() int {
	n := s.nfree + len(s.staged)
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
	cur, curOpen := 0, false
	var last Record
	push := func(n int) {
		for ; n > 0; n-- {
			rec := Record{Key: rng.Uint64()}
			tag := cur
			if curOpen && Less(rec, last) {
				tag = cur + 1
			}
			s.Push(rsItem{run: tag, rec: rec})
		}
	}
	pop := func(n int) {
		for ; n > 0 && s.Len() > 0; n-- {
			it := s.Pop()
			cur, last, curOpen = it.run, it.rec, true
		}
	}
	peak, live, slots := 0, 0, 0
	for _, pages := range []int{64, 30, 50, 16, 44, 23, 57, 37, 64, 16} {
		for round := 0; round < 40; round++ {
			if over := s.Len() - pages*R; over > 0 {
				pop(over)
			}
			push(pages*R - s.Len())
			s.PeekRun() // seal: the grant is full, the fullest point of a round
			live, slots = s.Len(), s.chunkSlots()
			peak = max(peak, slots)
			pop(block * R)
		}
	}
	t.Logf("settled at 16 pages: %d live entries, %d chunk slots (peak %d), scratch %d+%d entries",
		live, slots, peak, cap(s.stage), cap(s.sorted))
	if peak < 64*R {
		t.Fatalf("peak %d slots: the schedule never filled 64 pages", peak)
	}
	if slots > 2*live {
		t.Fatalf("retained %d record slots for %d live entries (> 2x)", slots, live)
	}
	if scratch := cap(s.stage) + cap(s.sorted); scratch > 2*2*maxStage {
		t.Fatalf("seal scratch grew to %d entries; it is bounded by maxStage", scratch)
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
			cur, curOpen, next := 0, false, 0
			var last Record
			out := make(Page, 0, R)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				for s.Len() < pages*R {
					rec := recs[next%len(recs)]
					next++
					tag := cur
					if curOpen && Less(rec, last) {
						tag = cur + 1
					}
					s.Push(rsItem{run: tag, rec: rec})
				}
				for n := block * R; n > 0; n-- {
					if s.PeekRun() != cur {
						cur++
					}
					it := s.Pop()
					if len(out) == R {
						out = out[:0]
					}
					out = append(out, it.rec)
					last, curOpen = it.rec, true
					done++
				}
			}
			b.ReportMetric(float64(s.TakeCompares())/float64(b.N), "compares/op")
		})
	}
}
