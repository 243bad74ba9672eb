package core

import "fmt"

// runInfo tracks one sorted run from creation through merge consumption.
//
// During merging, the run's current record lives in a one-record private
// workspace (ws) — exactly the paper's §3.2.2 design: the merge compares
// workspace tuples, so input buffers can be dropped (suspension, paging
// eviction, step switches) at any time without losing the merge position.
// (page, pos) is the storage position of the next record to copy into the
// workspace; bufs holds the resident pages starting at `page`.
type runInfo struct {
	id     RunID
	pages  int // pages written so far
	tuples int // tuples written so far

	ws      Record // current record (valid if wsValid)
	wsValid bool
	page    int      // page index of the next record to refill from
	pos     int      // record index within that page
	bufs    []inPage // resident pages, consecutive from `page`; nil when dropped

	// spent is the read token of the page that left bufs while ws still
	// aliases it: ws is that page's last record. Only the merge retires it
	// (produceOnePage's emit loop); otherwise the next refill or drop
	// forgets it and the collector takes the page, like every page an
	// adaptation drops. A token therefore never crosses from one step to
	// another: the step that retires a page is the one that read it and
	// emitted all of it.
	spent PageToken

	lastUsed int64      // MRU clock for the paging strategy
	hiLoaded int        // high-water mark of loaded pages (re-read detection)
	producer *mergeStep // step still appending to this run, nil when complete
	freed    bool

	// shared marks a Stream's cursor on an input of a LastStep: the engine
	// must not free the underlying storage when the cursor is consumed (the
	// LastStep frees the run at Close).
	shared bool
}

// inPage is one resident input page with the read token that delivered it,
// whose optional release methods (PageReleaser, RecordsReleaser) give its
// memory back.
type inPage struct {
	recs Page
	tok  PageToken
}

// remainingPages estimates how much of the run is left to read — the metric
// used to pick the "shortest" runs for preliminary merges.
func (r *runInfo) remainingPages() int { return r.pages - r.page }

// loaded returns the number of resident buffer pages.
func (r *runInfo) loaded() int { return len(r.bufs) }

// drop releases all resident buffers — to the collector: the spent page's
// handle goes with them, because whoever resumes the run may not be the step
// that consumed that page (a join's pending group still aliases the pages its
// joint step read when a split hands the run to a preliminary merge). The
// workspace record and the refill position survive, so merging can resume
// after re-reading `page`.
func (r *runInfo) drop() int {
	n := len(r.bufs)
	r.bufs = nil
	r.spent = nil
	return n
}

// exhausted reports whether every written record has been consumed,
// including the workspace. For runs with a paused producer this means
// "caught up", not necessarily final.
func (r *runInfo) exhausted() bool {
	return !r.wsValid && r.page >= r.pages && len(r.bufs) == 0
}

// needsLoad reports whether refilling requires a page read.
func (r *runInfo) needsLoad() bool {
	return len(r.bufs) == 0 && r.page < r.pages
}

// enter makes pg, the read of page r.page+len(r.bufs), resident. An empty
// page — a caller's run may hold one — is passed over here, once, when it
// would be the current page, so refill never finds one at the head of bufs;
// further along, refill steps over it as over every page it has finished.
func (r *runInfo) enter(pg inPage) {
	if len(pg.recs) == 0 && len(r.bufs) == 0 {
		r.page++
		return
	}
	r.bufs = append(r.bufs, pg)
}

// refill copies the next stored record into the workspace. It requires the
// current page to be resident; returns false (and invalidates the
// workspace) when no stored records remain resident.
func (r *runInfo) refill() bool {
	r.spent = nil // ws moves on: nothing aliases the page it kept alive
	if len(r.bufs) == 0 {
		r.wsValid = false
		return false
	}
	r.ws = r.bufs[0].recs[r.pos]
	r.wsValid = true
	r.pos++
	for len(r.bufs) > 0 && r.pos >= len(r.bufs[0].recs) {
		r.spent = r.bufs[0].tok
		r.bufs = r.bufs[1:]
		r.page++
		r.pos = 0
	}
	return true
}

func (r *runInfo) String() string {
	return fmt.Sprintf("run%d[%d/%d pages, pos %d.%d]", r.id, r.remainingPages(), r.pages, r.page, r.pos)
}

// sumRemaining totals remaining pages over runs (join's side-selection rule).
func sumRemaining(runs []*runInfo) int {
	t := 0
	for _, r := range runs {
		t += r.remainingPages()
	}
	return t
}
