package diskmodel

import "fmt"

// ExtentAlloc is a first-fit page-extent allocator over a linear page range.
// The simulator uses one per disk to place temporary sort runs on the
// cylinders bordering the relation area ("to minimize disk head movement",
// paper §4.1): in top-down mode allocation starts at the highest addresses,
// right below the relations.
type ExtentAlloc struct {
	free    []extent // sorted by start, non-overlapping, coalesced
	limit   int
	inUse   int
	topDown bool
}

type extent struct{ start, n int }

// NewExtentAlloc creates an allocator over pages [0, limit), allocating
// lowest addresses first.
func NewExtentAlloc(limit int) *ExtentAlloc {
	if limit < 0 {
		limit = 0
	}
	a := &ExtentAlloc{limit: limit}
	if limit > 0 {
		a.free = []extent{{0, limit}}
	}
	return a
}

// NewExtentAllocTopDown creates an allocator that prefers the highest
// addresses.
func NewExtentAllocTopDown(limit int) *ExtentAlloc {
	a := NewExtentAlloc(limit)
	a.topDown = true
	return a
}

// InUse returns the number of currently allocated pages.
func (a *ExtentAlloc) InUse() int { return a.inUse }

// Alloc returns the start of a contiguous extent of exactly n pages, first
// fit from the preferred end, or ok=false if no such extent exists.
func (a *ExtentAlloc) Alloc(n int) (start int, ok bool) {
	if n <= 0 {
		return 0, false
	}
	if a.topDown {
		for i := len(a.free) - 1; i >= 0; i-- {
			if a.free[i].n >= n {
				start = a.free[i].start + a.free[i].n - n
				a.free[i].n -= n
				if a.free[i].n == 0 {
					a.free = append(a.free[:i], a.free[i+1:]...)
				}
				a.inUse += n
				return start, true
			}
		}
		return 0, false
	}
	for i := range a.free {
		if a.free[i].n >= n {
			start = a.free[i].start
			a.free[i].start += n
			a.free[i].n -= n
			if a.free[i].n == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.inUse += n
			return start, true
		}
	}
	return 0, false
}

// AllocUpTo allocates between 1 and n contiguous pages, preferring the full
// amount; falls back to the largest available extent. got=0 means full.
func (a *ExtentAlloc) AllocUpTo(n int) (start, got int) {
	if s, ok := a.Alloc(n); ok {
		return s, n
	}
	// Largest free extent.
	best := -1
	for i := range a.free {
		if best < 0 || a.free[i].n > a.free[best].n {
			best = i
		}
	}
	if best < 0 {
		return 0, 0
	}
	got = a.free[best].n
	if got > n {
		got = n
	}
	if a.topDown {
		start = a.free[best].start + a.free[best].n - got
	} else {
		start = a.free[best].start
		a.free[best].start += got
	}
	a.free[best].n -= got
	if a.free[best].n == 0 {
		a.free = append(a.free[:best], a.free[best+1:]...)
	}
	a.inUse += got
	return start, got
}

// Free returns the extent [start, start+n) to the free pool, coalescing with
// neighbors. Freeing pages that are not allocated panics: that is a
// bookkeeping bug in the caller.
func (a *ExtentAlloc) Free(start, n int) {
	if n <= 0 {
		return
	}
	if start < 0 || start+n > a.limit {
		panic(fmt.Sprintf("diskmodel: Free(%d,%d) out of range [0,%d)", start, n, a.limit))
	}
	// Find insertion point.
	i := 0
	for i < len(a.free) && a.free[i].start < start {
		i++
	}
	// Overlap checks against neighbors.
	if i > 0 && a.free[i-1].start+a.free[i-1].n > start {
		panic(fmt.Sprintf("diskmodel: double free of extent [%d,%d)", start, start+n))
	}
	if i < len(a.free) && start+n > a.free[i].start {
		panic(fmt.Sprintf("diskmodel: double free of extent [%d,%d)", start, start+n))
	}
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = extent{start, n}
	// Coalesce with next, then previous.
	if i+1 < len(a.free) && a.free[i].start+a.free[i].n == a.free[i+1].start {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].start+a.free[i-1].n == a.free[i].start {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.inUse -= n
}
