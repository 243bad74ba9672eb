package core

// runWriter is the one place runs are written: every Store.Create and
// Store.Append of the engine happens here (and every Store.Free in
// runInfo.free below). It owns its client's output page buffers — the
// split's block, a merge engine's output page — and the one write in
// flight; the run being written is a parameter, so one writer serves the
// successive (or, under dynamic splitting, interleaved) output runs of its
// client with the same buffers. A step whose output goes to its caller
// (Stream) uses none of them: it hands its records over one at a time.
//
// Buffers rotate through fill → block → in-flight → free: a page that fills
// up joins the block of full pages waiting for the next flush, a flushed
// block's pages are recycled once its token completes (every store has its
// own copy of the bytes by then), so steady-state writing allocates no
// pages. How many pages a block gathers before it is flushed is the client's
// decision (SortConfig.BlockPages for run generation, MergeBlockPages for the
// merge); what is buffered belongs to the run it was produced for, so a
// client flushes before it turns the writer to another run. CPU charges,
// events and statistics stay with the callers.
//
// The merge's consumed input pages ride along: a page whose last record was
// just buffered is retired here and released to its store as soon as the
// Append of the block holding that record returns — a store whose read tokens
// offer Release has copied every payload by then (PageReleaser), so a read
// frame is reused only after every output page holding one of its records
// (this block at the latest) is encoded. When Append fails nothing is
// released; the collector takes the pages.
type runWriter struct {
	store RunStore
	recs  int    // records per page, for add's pagination
	fill  Page   // page under construction: nil, or 0 < len < cap == recs
	block []Page // full pages waiting for the next flush
	n     int    // records buffered in block and fill
	sent  []Page // block handed to the store, recycled once tok completes
	free  []Page // recycled page buffers
	tok   Token  // the one write in flight

	// retired holds release handles of input pages whose last record is in
	// block or fill. released is where flush counts the pages it gives back
	// (the client's statistic); a writer whose client retires pages must set
	// it.
	retired  []PageReleaser
	released *int
}

// newRun opens a new empty run.
func newRun(s RunStore) (*runInfo, error) {
	id, err := s.Create()
	if err != nil {
		return nil, err
	}
	return &runInfo{id: id}, nil
}

// add buffers one record for the next flush, paginating as it goes: a page
// joins the block the moment it is full.
func (w *runWriter) add(rec Record) {
	if w.fill == nil {
		w.fill = w.newPage()
	}
	w.fill = append(w.fill, rec)
	w.n++
	if len(w.fill) == cap(w.fill) {
		w.block = append(w.block, w.fill)
		w.fill = nil
	}
}

// newPage returns an empty page buffer: a recycled one if any.
func (w *runWriter) newPage() Page {
	if k := len(w.free) - 1; k >= 0 {
		pg := w.free[k]
		w.free = w.free[:k]
		return pg
	}
	return make(Page, 0, w.recs)
}

// page returns the page under construction, for its client to append to
// in place (len < cap == recs); put hands it back.
func (w *runWriter) page() Page {
	if w.fill == nil {
		w.fill = w.newPage()
	}
	return w.fill
}

// put takes back the page under construction, extended by its client: it
// joins the block the moment it is full, and an empty one goes back to the
// free buffers.
func (w *runWriter) put(pg Page) {
	w.n += len(pg) - len(w.fill)
	w.fill = pg
	switch len(pg) {
	case 0:
		w.free = append(w.free, pg)
		w.fill = nil
	case cap(pg):
		w.block = append(w.block, pg)
		w.fill = nil
	}
}

// retire takes over an input page whose records have all been buffered by
// add: it is released once the Append of the block holding the last of them
// has returned.
func (w *runWriter) retire(pg PageReleaser) {
	w.retired = append(w.retired, pg)
}

// flush appends everything buffered by add (the last page possibly partial)
// to r as one block, releases the input pages retired into it, and reports
// how many pages that was.
func (w *runWriter) flush(r *runInfo) (int, error) {
	if w.fill != nil {
		w.block = append(w.block, w.fill)
		w.fill = nil
	}
	pages := len(w.block)
	if pages == 0 {
		return 0, nil
	}
	if err := w.append(r, w.block); err != nil {
		return 0, err
	}
	w.sent, w.block, w.n = w.block, w.sent[:0], 0
	for _, pg := range w.retired {
		pg.Release()
		*w.released++
	}
	clear(w.retired)
	w.retired = w.retired[:0]
	return pages, nil
}

// append writes caller-owned pages to the end of r asynchronously. At most
// one write is in flight: the previous one is awaited first.
func (w *runWriter) append(r *runInfo, pages []Page) error {
	if err := w.wait(); err != nil {
		return err
	}
	tok, err := w.store.Append(r.id, pages)
	if err != nil {
		return err
	}
	w.tok = tok
	for _, p := range pages {
		r.tuples += len(p)
	}
	r.pages += len(pages)
	return nil
}

// wait waits for the write in flight, then recycles the flushed block.
func (w *runWriter) wait() error {
	if w.tok == nil {
		return nil
	}
	err := w.tok.Wait()
	w.tok = nil
	if err == nil {
		for _, pg := range w.sent {
			w.free = append(w.free, pg[:0])
		}
	}
	w.sent = w.sent[:0]
	return err
}

// abort abandons r: the run must be quiescent before it is freed, so the
// write in flight is awaited first.
func (w *runWriter) abort(r *runInfo) {
	_ = w.wait()
	_ = r.free(w.store)
}

// free releases the run's buffers and storage. It is idempotent. A Stream's
// shared cursor only drops its buffers: the underlying run belongs to the
// LastStep, which frees it at Close.
func (r *runInfo) free(s RunStore) error {
	if r == nil || r.freed {
		return nil
	}
	r.freed = true
	r.drop()
	if r.shared {
		return nil
	}
	return s.Free(r.id)
}

// WriteRun writes e.In to e.Store as one new run, blockPages pages per
// append (fewer than one counts as one) with one write in flight, observing
// e.Ctx at page boundaries — the ingest path behind the public WriteRun.
// The input must already be sorted. A failed write leaves no run behind.
func WriteRun(e *Env, blockPages int) (*SortResult, error) {
	w := runWriter{store: e.Store}
	r, err := newRun(e.Store)
	if err != nil {
		return nil, err
	}
	if err := w.copyIn(e, r, blockPages); err != nil {
		w.abort(r)
		return nil, err
	}
	return &SortResult{Result: r.id, Pages: r.pages, Tuples: r.tuples}, nil
}

// copyIn appends e.In to r in blocks of blockPages pages until the input
// ends, then waits for the last write. The input's pages — sub-slices of a
// slice input, fresh pages of a streamed one — are the writer's until their
// block's token completes, and so is the list that names them: two lists
// alternate, and append waits the one before out.
func (w *runWriter) copyIn(e *Env, r *runInfo, blockPages int) error {
	var blocks [2][]Page
	for k := 0; ; {
		if err := e.ctxErr(); err != nil {
			return err
		}
		pg, ok, err := e.In.NextPage()
		if err != nil {
			return err
		}
		if ok {
			blocks[k] = append(blocks[k], pg)
		}
		if n := len(blocks[k]); n > 0 && (!ok || n >= blockPages) {
			if err := w.append(r, blocks[k]); err != nil {
				return err
			}
			k ^= 1
			clear(blocks[k]) // written: append waited for it
			blocks[k] = blocks[k][:0]
		}
		if !ok {
			return w.wait()
		}
	}
}
