package core

import "bytes"

// rsItem is a heap entry for replacement selection: records are ordered by
// run tag first, so tuples destined for the next run sink below everything
// still eligible for the current one (Knuth vol. 3's classic scheme).
type rsItem struct {
	run int
	rec Record
}

// rsEntry is the in-heap representation of an rsItem: 16 bytes, pointer
// free. Sift operations move and compare only these entries — four per
// cache line instead of one 40-byte rsItem — while the record (whose
// payload slice would make every swap 40 bytes and every node a GC scan
// target) sits in a stable side table addressed by idx.
type rsEntry struct {
	run int32
	idx int32
	key Key
}

// rsHeap is a binary min-heap for replacement selection that counts its
// comparisons so the caller can charge them to the simulated CPU. The
// comparison algorithm is exactly the classic sift-up/sift-down, so the
// comparison counts — and therefore the simulator's CPU timings — are
// independent of the compact layout. It is the simulator's selector
// (Env.ClassicSelection) and the oracle the batched selector is tested
// against; the real engine runs batchSelector.
type rsHeap struct {
	entries  []rsEntry
	recs     []Record // side table; entries[i].idx indexes it
	free     []int32  // recycled side-table slots
	compares int64
}

func (h *rsHeap) Len() int { return len(h.entries) }

// TakeCompares returns comparisons performed since the last call.
func (h *rsHeap) TakeCompares() int64 {
	c := h.compares
	h.compares = 0
	return c
}

// Push inserts an item.
func (h *rsHeap) Push(it rsItem) {
	var idx int32
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
		h.recs[idx] = it.rec
	} else {
		idx = int32(len(h.recs))
		h.recs = append(h.recs, it.rec)
	}
	h.entries = append(h.entries, rsEntry{run: int32(it.run), idx: idx, key: it.rec.Key})
	es := h.entries
	cmp := int64(0)
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		cmp++
		if !entryLess(es[i], es[parent], h.recs) {
			break
		}
		es[i], es[parent] = es[parent], es[i]
		i = parent
	}
	h.compares += cmp
}

// add pushes pg's records at once, each tagged by f.
func (h *rsHeap) add(pg Page, f frontier) {
	for _, rec := range pg {
		h.Push(rsItem{run: f.tagOf(rec), rec: rec})
	}
}

// enter has nothing to do: add has pushed every record.
func (h *rsHeap) enter(frontier) {}

// PopRun pops a record at a time while the minimum belongs to run: the
// classic loop, so the comparison counts the simulator charges stay those
// of one Pop per record.
func (h *rsHeap) PopRun(run int, dst Page) Page {
	for len(dst) < cap(dst) && h.Len() > 0 && h.PeekRun() == run {
		dst = append(dst, h.Pop().rec)
	}
	return dst
}

// PeekRun returns the minimum's run tag without touching the record side
// table — the block-emission loop checks the tag once per record, and this
// keeps that check to a single 16-byte entry load.
func (h *rsHeap) PeekRun() int { return int(h.entries[0].run) }

// Pop removes and returns the minimum. Panics on empty heap.
func (h *rsHeap) Pop() rsItem {
	e := h.entries[0]
	top := rsItem{run: int(e.run), rec: h.recs[e.idx]}
	if top.rec.Payload != nil {
		h.recs[e.idx] = Record{} // release the payload reference
	}
	h.free = append(h.free, e.idx)
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	h.siftDown(0)
	return top
}

func (h *rsHeap) siftDown(i int) {
	es := h.entries // hoisted: h.compares writes must not force reloads
	recs := h.recs
	n := len(es)
	if i >= n {
		return
	}
	cmp := int64(0)
	e := es[i] // the element being sifted rides in registers
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		smallest, sm := i, e
		c := es[l]
		cmp++
		if entryLess(c, sm, recs) {
			smallest, sm = l, c
		}
		if r := l + 1; r < n {
			c = es[r]
			cmp++
			if entryLess(c, sm, recs) {
				smallest, sm = r, c
			}
		}
		if smallest == i {
			break
		}
		es[i] = sm
		es[smallest] = e
		i = smallest
	}
	h.compares += cmp
}

// entryLess is the heap order on bare entries: run tag, key, then payload
// bytes through the side table (key ties only).
func entryLess(a, b rsEntry, recs []Record) bool {
	if a.run != b.run {
		return a.run < b.run
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return bytes.Compare(recs[a.idx].Payload, recs[b.idx].Payload) < 0
}
