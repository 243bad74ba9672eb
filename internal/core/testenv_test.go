package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"github.com/memadapt/masort/internal/randx"
)

// ---- instant in-memory store ----

type memStore struct {
	runs    map[RunID][]Page
	freed   map[RunID]bool
	next    RunID
	appends int
	reads   int
}

func newMemStore() *memStore {
	return &memStore{runs: map[RunID][]Page{}, freed: map[RunID]bool{}}
}

type instantToken struct{ err error }

func (t instantToken) Wait() error { return t.err }

type instantPageToken struct {
	pg  Page
	err error
}

func (t instantPageToken) Wait() (Page, error) { return t.pg, t.err }

func (s *memStore) Create() (RunID, error) {
	id := s.next
	s.next++
	s.runs[id] = nil
	return id, nil
}

func (s *memStore) Append(id RunID, pages []Page) (Token, error) {
	if s.freed[id] {
		return nil, fmt.Errorf("append to freed run %d", id)
	}
	for _, p := range pages {
		cp := make(Page, len(p))
		copy(cp, p)
		s.runs[id] = append(s.runs[id], cp)
	}
	s.appends++
	return instantToken{}, nil
}

func (s *memStore) ReadAsync(id RunID, page int) PageToken {
	s.reads++
	if s.freed[id] {
		return instantPageToken{err: fmt.Errorf("read of freed run %d", id)}
	}
	pages := s.runs[id]
	if page < 0 || page >= len(pages) {
		return instantPageToken{err: fmt.Errorf("read page %d of run %d with %d pages", page, id, len(pages))}
	}
	return instantPageToken{pg: pages[page]}
}

func (s *memStore) Pages(id RunID) int { return len(s.runs[id]) }

func (s *memStore) Free(id RunID) error {
	if s.freed[id] {
		return fmt.Errorf("double free of run %d", id)
	}
	s.freed[id] = true
	return nil
}

func (s *memStore) liveRuns() int {
	n := 0
	for id := range s.runs {
		if !s.freed[id] {
			n++
		}
	}
	return n
}

// ---- scriptable broker ----

// scriptedBroker drives target changes deterministically: tick() advances on
// every broker call, and the script maps tick thresholds to new targets.
type scriptedBroker struct {
	t       testing.TB
	total   int
	floor   int
	granted int
	target  int

	ticks  int64
	limit  int64          // panic beyond this many ticks (0 = unlimited): livelock guard
	script []targetChange // sorted by tick
}

type targetChange struct {
	tick   int64
	target int
}

func newScriptedBroker(t testing.TB, total, floor int) *scriptedBroker {
	return &scriptedBroker{t: t, total: total, floor: floor, target: total}
}

func (b *scriptedBroker) clamp(v int) int {
	if v < b.floor {
		return b.floor
	}
	if v > b.total {
		return b.total
	}
	return v
}

func (b *scriptedBroker) tick() {
	b.ticks++
	if b.limit > 0 && b.ticks > b.limit {
		panic("scriptedBroker: tick limit exceeded (livelock?)")
	}
	for len(b.script) > 0 && b.script[0].tick <= b.ticks {
		b.target = b.clamp(b.script[0].target)
		b.script = b.script[1:]
	}
}

func (b *scriptedBroker) Granted() int { b.tick(); return b.granted }
func (b *scriptedBroker) Target() int  { b.tick(); return b.target }

func (b *scriptedBroker) Acquire(n int) int {
	b.tick()
	room := b.target - b.granted
	if n > room {
		n = room
	}
	if n < 0 {
		n = 0
	}
	b.granted += n
	return n
}

func (b *scriptedBroker) Yield(n int) {
	b.tick()
	if n > b.granted {
		b.t.Fatalf("broker: yield %d with only %d granted", n, b.granted)
	}
	b.granted -= n
}

func (b *scriptedBroker) Pressure() int {
	b.tick()
	if p := b.granted - b.target; p > 0 {
		return p
	}
	return 0
}

// The waits never block, they jump to the next scripted change: ctx has
// nothing to interrupt.
func (b *scriptedBroker) WaitTarget(_ context.Context, n int) error {
	if n > b.total {
		n = b.total
	}
	for b.target < n {
		if len(b.script) == 0 {
			// Script over: memory returns for good, so waits terminate.
			b.target = b.total
			return nil
		}
		b.ticks = b.script[0].tick // jump to the next scripted change
		b.tick()
	}
	return nil
}

func (b *scriptedBroker) WaitChange(context.Context) error {
	if len(b.script) == 0 {
		b.target = b.total
		return nil
	}
	b.ticks = b.script[0].tick
	b.tick()
	return nil
}

// ---- meters & inputs ----

type countingMeter struct {
	counts map[Op]int64
}

func newCountingMeter() *countingMeter { return &countingMeter{counts: map[Op]int64{}} }

func (m *countingMeter) Charge(op Op, n int64) { m.counts[op] += n }

type sliceInput struct {
	pages []Page
	i     int
}

func (in *sliceInput) NextPage() (Page, bool, error) {
	if in.i >= len(in.pages) {
		return nil, false, nil
	}
	p := in.pages[in.i]
	in.i++
	return p, true, nil
}

// pagesOf chunks records into pages of r records.
func pagesOf(recs []Record, r int) []Page {
	var pages []Page
	for len(recs) > 0 {
		n := r
		if n > len(recs) {
			n = len(recs)
		}
		pages = append(pages, Page(recs[:n:n]))
		recs = recs[n:]
	}
	return pages
}

// makeRecords generates n records with uniform random keys.
func makeRecords(n int, seed uint64) []Record {
	rng := randx.New(seed, "records")
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: rng.Uint64()}
	}
	return recs
}

// testEnv builds an Env over the instant substrate.
func testEnv(t *testing.T, recs []Record, pageRecords, total, floor int) (*Env, *memStore, *scriptedBroker, *countingMeter) {
	store := newMemStore()
	broker := newScriptedBroker(t, total, floor)
	meter := newCountingMeter()
	env := &Env{
		In:    &sliceInput{pages: pagesOf(recs, pageRecords)},
		Store: store,
		Mem:   broker,
		Meter: meter,
	}
	return env, store, broker, meter
}

// runRecords reads a run's full contents back.
func runRecords(t *testing.T, s *memStore, id RunID) []Record {
	t.Helper()
	var out []Record
	for _, p := range s.runs[id] {
		out = append(out, p...)
	}
	return out
}

func checkSorted(t *testing.T, recs []Record) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if Less(recs[i], recs[i-1]) {
			t.Fatalf("output not sorted at %d: %v > %v", i, recs[i-1].Key, recs[i].Key)
		}
	}
}

func checkPermutation(t *testing.T, in, out []Record) {
	t.Helper()
	if len(in) != len(out) {
		t.Fatalf("length mismatch: in %d, out %d", len(in), len(out))
	}
	a := make([]uint64, len(in))
	b := make([]uint64, len(out))
	for i := range in {
		a[i] = in[i].Key
		b[i] = out[i].Key
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output is not a permutation of input (first diff at %d)", i)
		}
	}
}
