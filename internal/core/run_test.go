package core

import "testing"

func TestRunInfoCursorBasics(t *testing.T) {
	r := &runInfo{id: 1, pages: 2, tuples: 5}
	r.bufs = []inPage{{recs: Page{{Key: 1}, {Key: 2}, {Key: 3}}}}
	if !r.refill() || r.ws.Key != 1 {
		t.Fatalf("refill: %+v", r.ws)
	}
	if r.pos != 1 || r.page != 0 {
		t.Fatalf("pos=%d page=%d", r.pos, r.page)
	}
	r.refill()
	r.refill() // consumes the page: page advances
	if r.page != 1 || r.pos != 0 || len(r.bufs) != 0 {
		t.Fatalf("after page: page=%d pos=%d bufs=%d", r.page, r.pos, len(r.bufs))
	}
	if !r.needsLoad() {
		t.Fatal("second page must need a load")
	}
	r.bufs = []inPage{{recs: Page{{Key: 4}, {Key: 5}}}}
	r.refill()
	r.refill()
	if r.refill() {
		t.Fatal("exhausted run must fail refill")
	}
	if !r.exhausted() {
		t.Fatal("run should be exhausted")
	}
}

func TestRunInfoDropPreservesPosition(t *testing.T) {
	r := &runInfo{id: 1, pages: 3}
	r.bufs = []inPage{{recs: Page{{Key: 10}, {Key: 20}}}, {recs: Page{{Key: 30}}}}
	r.refill() // ws=10, pos=1
	wsKey := r.ws.Key
	dropped := r.drop()
	if dropped != 2 || r.loaded() != 0 {
		t.Fatalf("drop freed %d", dropped)
	}
	if !r.wsValid || r.ws.Key != wsKey {
		t.Fatal("workspace must survive a drop")
	}
	if r.page != 0 || r.pos != 1 {
		t.Fatalf("refill position lost: page=%d pos=%d", r.page, r.pos)
	}
	// Reload the same page and continue: the next record is 20.
	r.bufs = []inPage{{recs: Page{{Key: 10}, {Key: 20}}}}
	r.refill()
	if r.ws.Key != 20 {
		t.Fatalf("resumed at %d, want 20", r.ws.Key)
	}
}

func TestRunInfoRemainingPages(t *testing.T) {
	r := &runInfo{pages: 10, page: 3}
	if r.remainingPages() != 7 {
		t.Fatalf("remaining = %d", r.remainingPages())
	}
	if sumRemaining([]*runInfo{r, {pages: 5}}) != 12 {
		t.Fatal("sumRemaining")
	}
	if r.String() == "" {
		t.Fatal("String must render")
	}
}

func TestHeadHeapOrdering(t *testing.T) {
	var cmp int64
	hh := headHeap{cmp: &cmp}
	keys := []uint64{42, 7, 99, 1, 55}
	for _, k := range keys {
		r := &runInfo{ws: Record{Key: k}, wsValid: true}
		hh.push(r)
	}
	if hh.rs[0].r.ws.Key != 1 {
		t.Fatalf("min = %d", hh.rs[0].r.ws.Key)
	}
	// Replace the root run's current record and fix: the heap must refresh
	// the cached key and re-establish order.
	hh.rs[0].r.ws.Key = 60
	hh.fixRoot()
	if hh.rs[0].r.ws.Key != 7 {
		t.Fatalf("after fix min = %d", hh.rs[0].r.ws.Key)
	}
	var prev uint64
	for i := 0; len(hh.rs) > 0; i++ {
		k := hh.rs[0].r.ws.Key
		if hh.rs[0].key != k {
			t.Fatalf("cached key %d out of sync with ws key %d", hh.rs[0].key, k)
		}
		if i > 0 && k < prev {
			t.Fatal("heap pops out of order")
		}
		prev = k
		hh.popRoot()
	}
	if cmp == 0 {
		t.Fatal("comparisons must be counted")
	}
}

func TestMergeStepNeed(t *testing.T) {
	st := &mergeStep{inputs: []*runInfo{{}, {}, {}}}
	if st.need() != 4 {
		t.Fatalf("need = %d", st.need())
	}
}
