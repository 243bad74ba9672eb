package diskmodel

import "fmt"

// Layout places database objects on a disk array following the paper's
// Section 4.1: relations are horizontally partitioned (striped page by page)
// across all disks and occupy contiguous middle cylinders; temporary files
// (sort runs) occupy the inner cylinders. The gap between the two areas is
// what makes relation↔temp alternation expensive.
type Layout struct {
	Geo    Geometry
	NDisks int

	relStart []int // linear start page of each relation in the striped relation space
	relPages []int
	baseCyl  int // first cylinder of the relation area on every disk

	temp         []*ExtentAlloc // per-disk temp allocators over pages [0, baseCyl*CylPages)
	nextTempDisk int
}

// NewLayout builds a layout for the given relation sizes (in pages).
func NewLayout(geo Geometry, ndisks int, relPages []int) (*Layout, error) {
	if ndisks < 1 {
		return nil, fmt.Errorf("diskmodel: need at least one disk")
	}
	total := 0
	starts := make([]int, len(relPages))
	for i, p := range relPages {
		if p <= 0 {
			return nil, fmt.Errorf("diskmodel: relation %d has %d pages", i, p)
		}
		starts[i] = total
		total += p
	}
	perDisk := (total + ndisks - 1) / ndisks
	relCyls := (perDisk + geo.CylPages - 1) / geo.CylPages
	baseCyl := (geo.Cylinders - relCyls) / 2
	if baseCyl < 1 || baseCyl+relCyls > geo.Cylinders {
		return nil, fmt.Errorf("diskmodel: %d relation pages do not fit on %d disks", total, ndisks)
	}
	l := &Layout{
		Geo:      geo,
		NDisks:   ndisks,
		relStart: starts,
		relPages: append([]int(nil), relPages...),
		baseCyl:  baseCyl,
		temp:     make([]*ExtentAlloc, ndisks),
	}
	for i := range l.temp {
		// Temp runs grow downward from just below the relation area, so the
		// relation↔temp head movement stays short (paper §4.1).
		l.temp[i] = NewExtentAllocTopDown(baseCyl * geo.CylPages)
	}
	return l, nil
}

// RelationBaseCyl returns the first cylinder of the relation area.
func (l *Layout) RelationBaseCyl() int { return l.baseCyl }

// RelationAddr maps page number `page` of relation rel onto (disk, address).
func (l *Layout) RelationAddr(rel, page int) (disk int, a Addr) {
	if rel < 0 || rel >= len(l.relPages) || page < 0 || page >= l.relPages[rel] {
		panic(fmt.Sprintf("diskmodel: relation page (%d,%d) out of range", rel, page))
	}
	linear := l.relStart[rel] + page
	disk = linear % l.NDisks
	local := linear / l.NDisks
	a = l.Geo.AddrOfPage(l.baseCyl*l.Geo.CylPages + local)
	return disk, a
}

// TempExtent is a contiguous allocation of temp pages on one disk.
type TempExtent struct {
	Disk  int
	Start int // linear page within the temp area
	N     int
}

// AllocTemp allocates up to n contiguous temp pages, rotating across disks to
// spread temp traffic. Returns an extent with N between 1 and n.
func (l *Layout) AllocTemp(n int) (TempExtent, error) {
	for try := 0; try < l.NDisks; try++ {
		d := (l.nextTempDisk + try) % l.NDisks
		if start, got := l.temp[d].AllocUpTo(n); got > 0 {
			l.nextTempDisk = (d + 1) % l.NDisks
			return TempExtent{Disk: d, Start: start, N: got}, nil
		}
	}
	return TempExtent{}, fmt.Errorf("diskmodel: temp area exhausted (need %d pages)", n)
}

// FreeTemp returns a previously allocated temp extent.
func (l *Layout) FreeTemp(e TempExtent) {
	l.temp[e.Disk].Free(e.Start, e.N)
}

// TempAddr maps a linear temp page on a disk to its address.
func (l *Layout) TempAddr(e TempExtent, off int) (disk int, a Addr) {
	if off < 0 || off >= e.N {
		panic(fmt.Sprintf("diskmodel: temp offset %d out of extent of %d", off, e.N))
	}
	return e.Disk, l.Geo.AddrOfPage(e.Start + off)
}

// TempInUse reports allocated temp pages on each disk (for invariant tests).
func (l *Layout) TempInUse() []int {
	out := make([]int, l.NDisks)
	for i, a := range l.temp {
		out[i] = a.InUse()
	}
	return out
}
