package core

import (
	"bytes"
	"math/bits"
	"slices"
	"sort"
)

// selector is the replacement-selection structure behind replSplit: a
// priority queue over (run tag, key, payload). Because that order is total
// on values, every implementation pops the same record sequence for the
// same sequence of calls — which structure a host gets changes CPU cost
// only, never a run, a page or an I/O.
//
// Records come in by input page (add) and are poppable once entered
// (enter): replSplit enters what it added at the block boundary, before it
// pops, and between a block's last pop and the next block's first pop the
// current run's last record — the frontier — does not move, so a record's
// run tag is the same whenever within that window it is decided.
type selector interface {
	// add takes one input page's records, tagged by f.
	add(pg Page, f frontier)
	// enter makes every added record poppable, tagged by f.
	enter(f frontier)
	// Len counts the records added and not yet popped.
	Len() int
	// PeekRun returns the minimum's run tag. Only entered records count.
	PeekRun() int
	// PopRun appends to dst, up to its capacity, the smallest records as
	// long as their run tag is run, and returns the extended slice.
	PopRun(run int, dst Page) Page
	// TakeCompares returns comparisons performed since the last call.
	TakeCompares() int64
}

// frontier is where replacement selection stands in its output: the run
// being written (tag), its last record and whether it has one yet (open).
// An input record that sorts before last can no longer join the current
// run, so it is tagged for the next.
type frontier struct {
	tag  int
	last Record
	open bool
}

// tagOf returns rec's run tag.
func (f frontier) tagOf(rec Record) int {
	if f.open && Less(rec, f.last) {
		return f.tag + 1
	}
	return f.tag
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
	maxStage      = 2048 // a burst seals a segment at this size, bounding sort scratch
	maxBucketBits = 10   // scatter buckets per segment ≤ 1 << maxBucketBits
	smallBucket   = 16   // insertion sort up to this many entries, pdqsort above
	freeSlack     = 16   // chunks the free list may hold across an entry
)

// rsChunk is the unit of record storage: a mini-run is a chain of chunks
// holding its records in pop order, and each chunk goes back to the free
// list the moment its last record is popped, so storage follows the live
// entry count down chunk by chunk.
type rsChunk struct {
	next *rsChunk
	n    int
	recs [chunkRecs]Record
}

// chunkPool is a free list of chunks.
type chunkPool struct {
	free *rsChunk
	n    int
}

// get takes a chunk from the free list, allocating only when the selector
// is growing.
func (p *chunkPool) get() *rsChunk {
	c := p.free
	if c == nil {
		return &rsChunk{}
	}
	p.free, c.next = c.next, nil
	p.n--
	return c
}

// put recycles a fully popped chunk.
func (p *chunkPool) put(c *rsChunk) {
	c.next, c.n = p.free, 0
	p.free = c
	p.n++
}

// miniRun is the unread remainder of one entered segment, all of one run
// tag.
type miniRun struct {
	c   *rsChunk
	pos int
	tag int32
}

// batchSelector is replacement selection shaped like its caller: replSplit
// adds a block's worth of input pages, then pops a block's worth. Adding
// only copies the records into a burst, which sorts them by (key, payload)
// in segments of up to maxStage records (bucket scatter on the key's top
// bits, comparison sort inside a bucket) — work that needs no run tag, so it
// is done before the frontier is known. Entering
// splits each sorted segment at the frontier by one binary search into at
// most two mini-runs — the records below it for the next run, the rest for
// the current one — and each pop replays one root path of the loser tree over
// the mini-run heads: a handful of comparisons over a few hundred bytes
// where the binary heap sifts through its whole array.
type batchSelector struct {
	n        int // entered records not yet popped
	compares int64

	next burst // records added since the last enter

	// lt orders the mini-runs by their heads — (run tag, key) of the next
	// record — and runs holds the mini-run behind each of its leaves.
	lt   loserTree
	runs []miniRun

	pool chunkPool // recycled chunks, shared with next
}

func newBatchSelector() *batchSelector {
	s := &batchSelector{}
	s.next.pool = &s.pool
	s.lt.tie, s.lt.cmp = s.payloadLess, &s.compares
	return s
}

func (s *batchSelector) Len() int { return s.n + s.next.n }

func (s *batchSelector) TakeCompares() int64 {
	c := s.compares + s.next.compares
	s.compares, s.next.compares = 0, 0
	return c
}

// add copies pg into the burst; the tag is decided when it is entered.
func (s *batchSelector) add(pg Page, _ frontier) { s.next.add(pg) }

func (s *batchSelector) PeekRun() int {
	return int(s.lt.heads[s.lt.min()].tag)
}

func (s *batchSelector) PopRun(run int, dst Page) Page {
	for len(dst) < cap(dst) && s.n > 0 {
		leaf := s.lt.min()
		m := &s.runs[leaf]
		if int(m.tag) != run {
			break
		}
		c := m.c
		dst = append(dst, c.recs[m.pos])
		if c.recs[m.pos].Payload != nil {
			c.recs[m.pos].Payload = nil // release the payload reference
		}
		m.pos++
		s.n--
		if m.pos == c.n {
			m.c, m.pos = c.next, 0
			s.pool.put(c)
		}
		if m.c != nil {
			s.lt.heads[leaf] = ltHead{key: m.c.recs[m.pos].Key, tag: m.tag}
		} else {
			s.lt.kill(leaf)
		}
		s.lt.replay(leaf)
	}
	return dst
}

// payloadLess breaks a (run, key) tie between two live leaves.
func (s *batchSelector) payloadLess(a, b int32) bool {
	ma, mb := s.runs[a], s.runs[b]
	return bytes.Compare(ma.c.recs[ma.pos].Payload, mb.c.recs[mb.pos].Payload) < 0
}

// enter seals the burst and enters each of its segments, split at the
// frontier: records that sort before f.last go to run f.tag+1, the rest
// to f.tag. A segment is sorted in the same (key, payload) order, so the
// two parts are a prefix and a suffix of it.
func (s *batchSelector) enter(f frontier) {
	b := &s.next
	b.seal()
	for _, sg := range b.segs {
		cs := b.chunks[sg.c0 : sg.c0+(sg.n+chunkRecs-1)/chunkRecs]
		for i := 1; i < len(cs); i++ {
			cs[i-1].next = cs[i]
		}
		cs[len(cs)-1].next = nil
		split := 0
		if f.open {
			split = sort.Search(sg.n, func(i int) bool {
				s.compares++
				return !Less(cs[i/chunkRecs].recs[i%chunkRecs], f.last)
			})
		}
		switch {
		case split == 0:
			s.addRun(cs[0], 0, f.tag)
		case split == sg.n:
			s.addRun(cs[0], 0, f.tag+1)
		default:
			k, o := split/chunkRecs, split%chunkRecs
			s.addRun(cs[k], o, f.tag)
			// The prefix ends where the suffix starts: at a chunk boundary it
			// is cut there, inside chunk k it ends in a copy of k's head.
			last := cs[k]
			if o > 0 {
				last = s.pool.get()
				last.n = copy(last.recs[:], cs[k].recs[:o])
				clear(cs[k].recs[:o])
			} else {
				last, k = cs[k-1], k-1
			}
			last.next = nil
			first := last
			if k > 0 {
				cs[k-1].next, first = last, cs[0]
			}
			s.addRun(first, 0, f.tag+1)
		}
	}
	s.n += b.n
	b.reset()
	// Right now every chunk the selector needs is in use: the pops that
	// follow refill the free list before the next burst draws on it. So
	// what is free beyond a little slack is surplus — the grant shrank and
	// pops outnumbered adds — and goes back to the garbage collector: the
	// footprint follows the grant down instead of pinning its peak.
	for ; s.pool.n > freeSlack; s.pool.n-- {
		s.pool.free = s.pool.free.next
	}
}

// addRun enters a mini-run at an idle leaf: O(log K) comparisons. Only when
// every leaf is taken does the tree double and rebuild.
func (s *batchSelector) addRun(first *rsChunk, pos, tag int) {
	leaf := s.lt.take()
	s.runs = leafSlots(s.runs, &s.lt)
	s.runs[leaf] = miniRun{c: first, pos: pos, tag: int32(tag)}
	s.lt.heads[leaf] = ltHead{key: first.recs[pos].Key, tag: int32(tag)}
	s.lt.enter(leaf)
}

// burst is what a batchSelector holds between two entries: input records
// in chunks, sorted by (key, payload) in segments. Filling and sorting it
// touch nothing else of the selector but the chunk pool.
type burst struct {
	n        int        // records in segs and stage
	compares int64      // comparisons sorting them
	chunks   []*rsChunk // the sealed segments' chunks, then the open one's
	segs     []segment  // sealed segments
	open     int        // first chunk of the open segment
	stage    []rsEntry  // the open segment's entries; idx is the position
	sorted   []rsEntry  // scatter destination, reused from seal to seal
	pool     *chunkPool
}

// segment is one sorted run of a burst's records: n records in the chunks
// from c0 on.
type segment struct{ c0, n int }

// add copies pg's records into the open segment, sealing it when full.
func (b *burst) add(pg Page) {
	for _, rec := range pg {
		p := len(b.stage)
		if p == maxStage {
			b.seal()
			p = 0
		}
		if p%chunkRecs == 0 {
			b.chunks = append(b.chunks, b.pool.get())
		}
		b.chunks[b.open+p/chunkRecs].recs[p%chunkRecs] = rec
		b.stage = append(b.stage, rsEntry{idx: int32(p), key: rec.Key})
	}
	b.n += len(pg)
}

// reset empties a burst whose chunks the selector has taken over.
func (b *burst) reset() {
	clear(b.chunks)
	b.chunks, b.segs, b.open, b.n = b.chunks[:0], b.segs[:0], 0, 0
}

// seal sorts the open segment in place.
func (b *burst) seal() {
	if len(b.stage) == 0 {
		return
	}
	cs := b.chunks[b.open:]
	ents := b.sortStage()
	// Apply the sorted order to the records where they were staged, one
	// cycle of the permutation at a time: ents[i].idx is the staged
	// position of the record that belongs at position i. No second record
	// buffer, and each record moves once.
	rec := func(p int) *Record { return &cs[p/chunkRecs].recs[p%chunkRecs] }
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
	for ci, c := range cs {
		c.n = min(chunkRecs, len(ents)-ci*chunkRecs)
	}
	b.segs = append(b.segs, segment{c0: b.open, n: len(ents)})
	b.open = len(b.chunks)
	b.stage = b.stage[:0]
}

// sortStage sorts the open segment's entries and returns them (in b.sorted,
// or in place) by distribution: one counting pass over buckets of the top
// bits of key − min, one pass moving each entry to its bucket, then a
// comparison sort inside every bucket that holds more than one entry. Tiny
// segments go straight to the comparison sort.
func (b *burst) sortStage() []rsEntry {
	ents := b.stage
	if len(ents) <= smallBucket {
		b.sortEntries(ents)
		return ents
	}
	minKey, maxKey := ents[0].key, ents[0].key
	for _, e := range ents[1:] {
		minKey, maxKey = min(minKey, e.key), max(maxKey, e.key)
	}
	// About one bucket per entry, so most buckets need no sorting at all.
	bb := min(bits.Len(uint(len(ents)))-1, maxBucketBits)
	shift := max(bits.Len64(maxKey-minKey)-bb, 0)
	bucket := func(e rsEntry) int { return int((e.key - minKey) >> shift) }
	var ends [1 << maxBucketBits]int32
	end := ends[:1<<bb] // counts, then start offsets, then end offsets
	for _, e := range ents {
		end[bucket(e)]++
	}
	var sum int32
	for i, c := range end {
		end[i] = sum
		sum += c
	}
	if cap(b.sorted) < len(ents) {
		b.sorted = make([]rsEntry, len(ents), max(len(ents), cap(b.stage)))
	}
	dst := b.sorted[:len(ents)]
	for _, e := range ents {
		i := bucket(e)
		dst[end[i]] = e
		end[i]++
	}
	lo := 0
	for _, e := range end {
		if hi := int(e); hi-lo > 1 {
			b.sortEntries(dst[lo:hi])
		}
		lo = int(e)
	}
	return dst
}

// sortEntries is the comparison sort on staged entries, in the full (key,
// payload) order.
func (b *burst) sortEntries(es []rsEntry) {
	if len(es) > smallBucket {
		slices.SortFunc(es, func(x, y rsEntry) int {
			if b.stagedLess(x, y) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(es); i++ {
		e, j := es[i], i
		for ; j > 0 && b.stagedLess(e, es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

func (b *burst) stagedLess(x, y rsEntry) bool {
	b.compares++
	if x.key != y.key {
		return x.key < y.key
	}
	cs := b.chunks[b.open:]
	px := cs[x.idx/chunkRecs].recs[x.idx%chunkRecs].Payload
	py := cs[y.idx/chunkRecs].recs[y.idx%chunkRecs].Payload
	return bytes.Compare(px, py) < 0
}
