package core

import (
	"slices"
	"testing"
)

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

// TestHeadHeapOrdering drives both runHeads implementations through the
// merge's calls: the minimum's workspace moves on (fixMin must refresh the
// cached key), runs go dry, and comparisons are charged.
func TestHeadHeapOrdering(t *testing.T) {
	for _, classic := range []bool{true, false} {
		var cmp int64
		hh := (&Env{ClassicSelection: classic}).newRunHeads(&cmp)
		hh.reset(5)
		for _, k := range []uint64{42, 7, 99, 1, 55} {
			hh.push(&runInfo{ws: Record{Key: k}, wsValid: true})
		}
		if k := hh.min().ws.Key; k != 1 {
			t.Fatalf("classic=%v: min = %d", classic, k)
		}
		hh.min().ws.Key = 60
		hh.fixMin()
		var got []uint64
		for r := hh.min(); r != nil; r = hh.min() {
			got = append(got, r.ws.Key)
			hh.popMin()
		}
		if !slices.Equal(got, []uint64{7, 42, 55, 60, 99}) {
			t.Fatalf("classic=%v: popped %v", classic, got)
		}
		if cmp == 0 {
			t.Fatalf("classic=%v: comparisons must be counted", classic)
		}
	}
}

func TestMergeStepNeed(t *testing.T) {
	st := &mergeStep{inputs: []*runInfo{{}, {}, {}}}
	if st.need() != 4 {
		t.Fatalf("need = %d", st.need())
	}
}
