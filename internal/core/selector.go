package core

import (
	"bytes"
	"math/bits"
	"slices"
)

// selector is the replacement-selection structure behind replSplit: a
// priority queue over (run tag, key, payload). Because that order is total
// on values, every implementation pops the same record sequence for the
// same sequence of calls — which structure a host gets changes CPU cost
// only, never a run, a page fence or an I/O.
type selector interface {
	Len() int
	Push(it rsItem)
	// PeekRun returns the minimum's run tag.
	PeekRun() int
	Pop() rsItem
	// TakeCompares returns comparisons performed since the last call.
	TakeCompares() int64
}

// newSelector returns the host's selection structure: the batched selector
// for the real engine, the classic counted heap where the host asks for it
// (the simulator, whose CPU model is calibrated on the heap's comparisons).
func (e *Env) newSelector() selector {
	if e.ClassicSelection {
		return &rsHeap{}
	}
	return newBatchSelector()
}

const (
	chunkRecs     = 64   // records per storage chunk (power of two)
	maxStage      = 2048 // Push seals a burst at this size, bounding seal scratch
	maxBucketBits = 10   // scatter buckets per run tag ≤ 1 << maxBucketBits
	smallBucket   = 16   // insertion sort up to this many entries, pdqsort above
	freeSlack     = 8    // chunks the free list may hold across a seal
)

// rsChunk is the unit of record storage: a mini-run is a chain of chunks
// holding its records in pop order, and each chunk goes back to the free
// list the moment its last record is popped, so storage follows the live
// entry count down chunk by chunk.
type rsChunk struct {
	next *rsChunk
	n    int
	tags [chunkRecs]int32
	recs [chunkRecs]Record
}

// miniRun is the unread remainder of one sealed burst.
type miniRun struct {
	c   *rsChunk
	pos int
}

// batchSelector is replacement selection shaped like its caller: replSplit
// pushes a block's worth of records, then pops a block's worth, so Push
// only stages the record; the first PeekRun/Pop after a burst seals the
// staged records into one sorted mini-run (bucket scatter on the key's top
// bits, comparison sort inside a bucket), and Pop replays one root path of
// the loser tree over the mini-run heads — a handful of comparisons over a
// few hundred bytes where the binary heap sifts through its whole array.
type batchSelector struct {
	n        int // live entries, staged and sealed
	compares int64

	stage  []rsEntry  // staged entries in arrival order; idx is the position
	staged []*rsChunk // their records, position p at staged[p/chunkRecs]
	sorted []rsEntry  // scatter destination, reused from seal to seal

	// lt orders the mini-runs by their heads — (run tag, key) of the next
	// record — and runs holds the mini-run behind each of its leaves.
	lt   loserTree
	runs []miniRun

	free  *rsChunk // recycled chunks
	nfree int
}

func newBatchSelector() *batchSelector {
	s := &batchSelector{}
	s.lt.tie, s.lt.cmp = s.payloadLess, &s.compares
	return s
}

func (s *batchSelector) Len() int { return s.n }

func (s *batchSelector) TakeCompares() int64 {
	c := s.compares
	s.compares = 0
	return c
}

func (s *batchSelector) Push(it rsItem) {
	p := len(s.stage)
	if p == maxStage {
		s.seal()
		p = 0
	}
	if p%chunkRecs == 0 {
		s.staged = append(s.staged, s.newChunk())
	}
	s.staged[p/chunkRecs].recs[p%chunkRecs] = it.rec
	s.stage = append(s.stage, rsEntry{run: int32(it.run), idx: int32(p), key: it.rec.Key})
	s.n++
}

func (s *batchSelector) PeekRun() int {
	if len(s.stage) > 0 {
		s.seal()
	}
	return int(s.lt.heads[s.lt.min()].tag)
}

func (s *batchSelector) Pop() rsItem {
	if len(s.stage) > 0 {
		s.seal()
	}
	leaf := s.lt.min()
	m := &s.runs[leaf]
	c := m.c
	it := rsItem{run: int(c.tags[m.pos]), rec: c.recs[m.pos]}
	if it.rec.Payload != nil {
		c.recs[m.pos].Payload = nil // release the payload reference
	}
	m.pos++
	s.n--
	if m.pos == c.n {
		m.c, m.pos = c.next, 0
		s.release(c)
	}
	if m.c != nil {
		s.lt.heads[leaf] = ltHead{key: m.c.recs[m.pos].Key, tag: m.c.tags[m.pos]}
	} else {
		s.lt.kill(leaf)
	}
	s.lt.replay(leaf)
	return it
}

// payloadLess breaks a (run, key) tie between two live leaves.
func (s *batchSelector) payloadLess(a, b int32) bool {
	ma, mb := s.runs[a], s.runs[b]
	return bytes.Compare(ma.c.recs[ma.pos].Payload, mb.c.recs[mb.pos].Payload) < 0
}

// newChunk takes a chunk from the free list, allocating only when the
// selector is growing.
func (s *batchSelector) newChunk() *rsChunk {
	c := s.free
	if c == nil {
		return &rsChunk{}
	}
	s.free, c.next = c.next, nil
	s.nfree--
	return c
}

// release recycles a fully popped chunk.
func (s *batchSelector) release(c *rsChunk) {
	c.next, c.n = s.free, 0
	s.free = c
	s.nfree++
}

// seal turns the staged burst into one sorted mini-run and enters it in the
// loser tree.
func (s *batchSelector) seal() {
	ents := s.sortBurst(s.stage)
	// Apply the sorted order to the records where they were staged, one
	// cycle of the permutation at a time: ents[i].idx is the staged
	// position of the record that belongs at position i. No second record
	// buffer, and each record moves once.
	rec := func(p int) *Record { return &s.staged[p/chunkRecs].recs[p%chunkRecs] }
	for i := range ents {
		src := int(ents[i].idx)
		if src == i {
			continue
		}
		first, j := *rec(i), i
		for src != i {
			*rec(j) = *rec(src)
			ents[j].idx = int32(j)
			j, src = src, int(ents[src].idx)
		}
		*rec(j) = first
		ents[j].idx = int32(j)
	}
	for ci, c := range s.staged {
		lo := ci * chunkRecs
		c.n = min(chunkRecs, len(ents)-lo)
		for i, e := range ents[lo : lo+c.n] {
			c.tags[i] = e.run
		}
		if ci > 0 {
			s.staged[ci-1].next = c
		}
	}
	s.addRun(s.staged[0])
	// Right now every chunk the selector needs is in use: the pops that
	// follow refill the free list before the next burst draws on it. So
	// what is free beyond a little slack is surplus — the grant shrank and
	// pops outnumbered pushes — and goes back to the garbage collector:
	// the footprint follows the grant down instead of pinning its peak.
	for ; s.nfree > freeSlack; s.nfree-- {
		s.free = s.free.next
	}
	clear(s.staged)
	s.staged = s.staged[:0]
	s.stage = s.stage[:0]
}

// sortBurst sorts the staged entries and returns them (in s.sorted, or in
// place). A burst whose tags take at most two adjacent values — all
// replSplit ever pushes — is sorted by distribution: one counting pass over
// (tag, top bits of key − min) buckets, one pass moving each entry to its
// bucket, then a comparison sort inside every bucket that holds more than
// one entry. Tiny bursts and wider tag ranges go straight to the
// comparison sort.
func (s *batchSelector) sortBurst(ents []rsEntry) []rsEntry {
	if len(ents) <= smallBucket {
		s.sortEntries(ents)
		return ents
	}
	minRun, maxRun := ents[0].run, ents[0].run
	minKey, maxKey := ents[0].key, ents[0].key
	for _, e := range ents[1:] {
		minRun, maxRun = min(minRun, e.run), max(maxRun, e.run)
		minKey, maxKey = min(minKey, e.key), max(maxKey, e.key)
	}
	if maxRun-minRun > 1 {
		s.sortEntries(ents)
		return ents
	}
	// About one bucket per entry of either tag, so most buckets need no
	// sorting at all.
	bb := min(bits.Len(uint(len(ents)))-1, maxBucketBits)
	shift := max(bits.Len64(maxKey-minKey)-bb, 0)
	bucket := func(e rsEntry) int {
		return int(e.run-minRun)<<bb | int((e.key-minKey)>>shift)
	}
	var ends [2 << maxBucketBits]int32
	end := ends[:2<<bb] // counts, then start offsets, then end offsets
	for _, e := range ents {
		end[bucket(e)]++
	}
	var sum int32
	for b, c := range end {
		end[b] = sum
		sum += c
	}
	if cap(s.sorted) < len(ents) {
		s.sorted = make([]rsEntry, len(ents), max(len(ents), cap(s.stage)))
	}
	dst := s.sorted[:len(ents)]
	for _, e := range ents {
		b := bucket(e)
		dst[end[b]] = e
		end[b]++
	}
	lo := 0
	for _, e := range end {
		if hi := int(e); hi-lo > 1 {
			s.sortEntries(dst[lo:hi])
		}
		lo = int(e)
	}
	return dst
}

// sortEntries is the comparison sort on staged entries, in the full (run,
// key, payload) order.
func (s *batchSelector) sortEntries(es []rsEntry) {
	if len(es) > smallBucket {
		slices.SortFunc(es, func(a, b rsEntry) int {
			if s.stagedLess(a, b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(es); i++ {
		e, j := es[i], i
		for ; j > 0 && s.stagedLess(e, es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

func (s *batchSelector) stagedLess(a, b rsEntry) bool {
	s.compares++
	if a.run != b.run {
		return a.run < b.run
	}
	if a.key != b.key {
		return a.key < b.key
	}
	pa := s.staged[a.idx/chunkRecs].recs[a.idx%chunkRecs].Payload
	pb := s.staged[b.idx/chunkRecs].recs[b.idx%chunkRecs].Payload
	return bytes.Compare(pa, pb) < 0
}

// addRun enters a sealed mini-run at an idle leaf: O(log K) comparisons.
// Only when every leaf is taken does the tree double and rebuild.
func (s *batchSelector) addRun(first *rsChunk) {
	leaf := s.lt.take()
	s.runs = leafSlots(s.runs, &s.lt)
	s.runs[leaf] = miniRun{c: first}
	s.lt.heads[leaf] = ltHead{key: first.recs[0].Key, tag: first.tags[0]}
	s.lt.enter(leaf)
}
