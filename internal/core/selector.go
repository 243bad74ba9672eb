package core

import (
	"bytes"
	"math"
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
	return &batchSelector{}
}

const (
	chunkRecs     = 64   // records per storage chunk (power of two)
	maxStage      = 2048 // Push seals a burst at this size, bounding seal scratch
	maxBucketBits = 10   // scatter buckets per run tag ≤ 1 << maxBucketBits
	smallBucket   = 16   // insertion sort up to this many entries, pdqsort above
	freeSlack     = 8    // chunks the free list may hold across a seal
	deadRun       = math.MaxInt32
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

// rsHead is a mini-run's next record as the loser tree sees it.
type rsHead struct {
	key Key
	run int32
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
// a loser tree over the mini-run heads — a handful of comparisons over a
// few hundred bytes where the binary heap sifts through its whole array.
type batchSelector struct {
	n        int // live entries, staged and sealed
	compares int64

	stage  []rsEntry  // staged entries in arrival order; idx is the position
	staged []*rsChunk // their records, position p at staged[p/chunkRecs]
	sorted []rsEntry  // scatter destination, reused from seal to seal

	// The loser tree: tree[0] is the winning leaf, tree[j] the loser of the
	// match at internal node j; leaf l sits at node len(tree)+l. A leaf
	// without a mini-run carries a head that loses to every live one.
	tree  []int32
	heads []rsHead
	runs  []miniRun
	idle  []int32 // leaves without a mini-run

	free  *rsChunk // recycled chunks
	nfree int
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
	return int(s.heads[s.tree[0]].run)
}

func (s *batchSelector) Pop() rsItem {
	if len(s.stage) > 0 {
		s.seal()
	}
	leaf := s.tree[0]
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
		s.heads[leaf] = rsHead{key: m.c.recs[m.pos].Key, run: m.c.tags[m.pos]}
	} else {
		s.heads[leaf] = rsHead{key: Key(leaf), run: deadRun}
		s.idle = append(s.idle, leaf)
	}
	// Replay the winner's path: every loser stored on it is the winner of
	// the sibling subtree, so one comparison per level restores the tree.
	// Which side wins a match is a coin flip, so the comparison and the
	// swap are arithmetic, not branches: (run, key) compares as one 128-bit
	// subtraction, and the borrow selects winner and loser through a mask.
	k := len(s.tree)
	w, hw := leaf, s.heads[leaf]
	for j := (k + int(leaf)) >> 1; j > 0; j >>= 1 {
		o := s.tree[j]
		ho := s.heads[o]
		_, lt := bits.Sub64(ho.key, hw.key, 0)
		_, lt = bits.Sub64(uint64(uint32(ho.run)), uint64(uint32(hw.run)), lt)
		if ho == hw && s.payloadLess(o, w) {
			lt = 1
		}
		mask := -lt // all ones when o beats w
		d := (w ^ o) & int32(mask)
		s.tree[j], w = o^d, w^d
		hw.key ^= (hw.key ^ ho.key) & mask
		hw.run ^= (hw.run ^ ho.run) & int32(mask)
	}
	s.tree[0] = w
	s.compares += int64(bits.Len(uint(k)) - 1)
	return it
}

// leafLess orders two leaves by their heads: run tag, key, then payload
// bytes (key ties only). Idle leaves carry distinct keys, so they never
// reach the payload step.
func (s *batchSelector) leafLess(a, b int32) bool {
	s.compares++
	ha, hb := s.heads[a], s.heads[b]
	if ha.run != hb.run {
		return ha.run < hb.run
	}
	if ha.key != hb.key {
		return ha.key < hb.key
	}
	return s.payloadLess(a, b)
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
	if len(s.idle) == 0 {
		s.grow()
	}
	leaf := s.idle[len(s.idle)-1]
	s.idle = s.idle[:len(s.idle)-1]
	s.runs[leaf] = miniRun{c: first}
	s.heads[leaf] = rsHead{key: first.recs[0].Key, run: first.tags[0]}

	// The leaf is not the winner, so the losers on its path are not all
	// sibling-subtree winners. Recover those top-down without comparing a
	// key: at each node the match was between the winner that went up and
	// the stored loser, and whichever of the two lies under the off-path
	// child is that subtree's winner.
	k := len(s.tree)
	pos := k + int(leaf)
	depth := bits.Len(uint(k)) - 1
	var opp [32]int32
	w := s.tree[0]
	for lvl := depth; lvl >= 1; lvl-- {
		l := s.tree[pos>>lvl]
		if (k+int(l))>>(lvl-1) == pos>>(lvl-1) {
			opp[lvl], w = w, l
		} else {
			opp[lvl] = l
		}
	}
	w = leaf
	for lvl := 1; lvl <= depth; lvl++ {
		o := opp[lvl]
		if s.leafLess(o, w) {
			o, w = w, o
		}
		s.tree[pos>>lvl] = o
	}
	s.tree[0] = w
}

// grow doubles the leaf count and rebuilds the tree bottom-up.
func (s *batchSelector) grow() {
	old := len(s.tree)
	k := max(2*old, 4)
	s.tree = slices.Grow(s.tree[:0], k)[:k]
	s.heads = slices.Grow(s.heads, k-old)[:k]
	s.runs = slices.Grow(s.runs, k-old)[:k]
	for l := k - 1; l >= old; l-- {
		s.heads[l] = rsHead{key: Key(l), run: deadRun}
		s.runs[l] = miniRun{}
		s.idle = append(s.idle, int32(l))
	}
	win := make([]int32, 2*k) // subtree winners; a doubling is rare enough to allocate
	for l := 0; l < k; l++ {
		win[k+l] = int32(l)
	}
	for j := k - 1; j >= 1; j-- {
		a, b := win[2*j], win[2*j+1]
		if s.leafLess(b, a) {
			a, b = b, a
		}
		win[j], s.tree[j] = a, b
	}
	s.tree[0] = win[1]
}
