package core

import (
	"testing"
	"testing/quick"
)

func TestRSHeapOrdersByRunThenKey(t *testing.T) {
	h := &rsHeap{}
	h.Push(rsItem{run: 1, rec: Record{Key: 1}})
	h.Push(rsItem{run: 0, rec: Record{Key: 100}})
	h.Push(rsItem{run: 0, rec: Record{Key: 50}})
	h.Push(rsItem{run: 1, rec: Record{Key: 2}})
	want := []struct {
		run int
		key uint64
	}{{0, 50}, {0, 100}, {1, 1}, {1, 2}}
	for i, w := range want {
		it := h.Pop()
		if it.run != w.run || it.rec.Key != w.key {
			t.Fatalf("pop %d = (%d,%d), want (%d,%d)", i, it.run, it.rec.Key, w.run, w.key)
		}
	}
}

func TestRSHeapCountsCompares(t *testing.T) {
	h := &rsHeap{}
	for i := 0; i < 100; i++ {
		h.Push(rsItem{rec: Record{Key: uint64(i * 37 % 100)}})
	}
	if h.TakeCompares() == 0 {
		t.Fatal("pushes must count comparisons")
	}
	if h.TakeCompares() != 0 {
		t.Fatal("TakeCompares must reset")
	}
}

func TestRSHeapPropertySortedDrain(t *testing.T) {
	f := func(keys []uint64, runs []uint8) bool {
		h := &rsHeap{}
		for i, k := range keys {
			r := 0
			if i < len(runs) {
				r = int(runs[i]) % 3
			}
			h.Push(rsItem{run: r, rec: Record{Key: k}})
		}
		var prev rsItem
		for i := 0; h.Len() > 0; i++ {
			it := h.Pop()
			if i > 0 {
				if it.run < prev.run {
					return false
				}
				if it.run == prev.run && Less(it.rec, prev.rec) {
					return false
				}
			}
			prev = it
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordLessTiebreak(t *testing.T) {
	a := Record{Key: 5, Payload: []byte("a")}
	b := Record{Key: 5, Payload: []byte("b")}
	if !Less(a, b) || Less(b, a) {
		t.Fatal("payload must break key ties")
	}
	if Less(a, a) {
		t.Fatal("irreflexive")
	}
	if !Less(Record{Key: 1}, Record{Key: 2}) {
		t.Fatal("key ordering")
	}
}

func TestPagesForTuples(t *testing.T) {
	cases := []struct{ n, r, want int }{
		{0, 8, 0}, {1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {64, 8, 8}, {-3, 8, 0},
	}
	for _, c := range cases {
		if got := PagesForTuples(c.n, c.r); got != c.want {
			t.Fatalf("PagesForTuples(%d,%d) = %d, want %d", c.n, c.r, got, c.want)
		}
	}
}
