// Package diskmodel simulates the disk subsystem of the VLDB'93
// memory-adaptive sorting paper: one queue per disk serviced in elevator
// (SCAN) order, a seek time of SeekFactor·√(cylinders crossed) (the
// Bitton/Gray model the paper cites), a rotational delay that is waived when
// an access sequentially continues the previously serviced one, and
// asynchronous write-behind with completion flags.
//
// It also provides the cylinder layout used by the paper: relations occupy
// the middle cylinders of each disk, temporary sort runs the inner
// cylinders, so every alternation between reading the source relation and
// writing a run pays a long seek — the effect that makes one-page-at-a-time
// replacement selection slow and block writes worthwhile.
package diskmodel

import (
	"fmt"
	"math"
	"time"

	"github.com/memadapt/masort/internal/randx"
	"github.com/memadapt/masort/internal/sim"
)

// Geometry describes one disk. Defaults mirror Table 3 of the paper.
type Geometry struct {
	Cylinders  int           // cylinders per disk
	CylPages   int           // pages per cylinder
	TrackPages int           // pages per track: transfer time = RotateTime/TrackPages
	SeekFactor float64       // seconds per sqrt(cylinders crossed)
	RotateTime time.Duration // one full rotation
}

// DefaultGeometry returns the paper's Table 3 disk: 1500 cylinders of 90
// 8 KB pages, 16.7 ms rotation, seek factor 0.000617. TrackPages is a
// calibration constant not stated in the paper (see DESIGN.md).
func DefaultGeometry() Geometry {
	return Geometry{
		Cylinders:  1500,
		CylPages:   90,
		TrackPages: 5,
		SeekFactor: 0.000617,
		RotateTime: 16700 * time.Microsecond,
	}
}

// Pages returns the disk capacity in pages.
func (g Geometry) Pages() int { return g.Cylinders * g.CylPages }

// TransferTime returns the time to transfer one page.
func (g Geometry) TransferTime() time.Duration {
	return g.RotateTime / time.Duration(g.TrackPages)
}

// SeekTime returns the time to seek across n cylinders.
func (g Geometry) SeekTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(g.SeekFactor * math.Sqrt(float64(n)) * float64(time.Second))
}

// Addr locates a page on a disk.
type Addr struct {
	Cyl  int
	Slot int // page slot within the cylinder
}

// AddrOfPage converts a linear page number into a cylinder/slot address.
func (g Geometry) AddrOfPage(page int) Addr {
	return Addr{Cyl: page / g.CylPages, Slot: page % g.CylPages}
}

// Kind distinguishes reads from writes.
type Kind int

const (
	Read Kind = iota
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// request is one queued page access.
type request struct {
	addr Addr
	kind Kind
	done *sim.Flag
	enq  sim.Time
	seq  int64
}

// Stats aggregates completed-request metrics for one disk.
type Stats struct {
	Reads, Writes   int64
	BusyTime        sim.Time // head busy (seek+rotate+transfer)
	TotalAccessTime sim.Time // sum over requests of completion − enqueue (incl. queue wait)
	SeekTime        sim.Time // total time spent seeking
	Seeks           int64    // number of non-zero seeks
}

// AvgAccessTime returns the mean per-page access time including queue waits —
// the metric of the paper's Table 5.
func (s Stats) AvgAccessTime() time.Duration {
	n := s.Reads + s.Writes
	if n == 0 {
		return 0
	}
	return s.TotalAccessTime / sim.Time(n)
}

// Disk simulates a single disk with an elevator queue.
type Disk struct {
	Geo Geometry

	s    *sim.Sim
	rng  *randx.Stream
	q    []*request
	seq  int64
	work *sim.Signal

	headCyl   int
	dirUp     bool
	lastAddr  Addr
	lastValid bool

	Stats Stats
}

// New creates a disk and spawns its server process in s.
func New(s *sim.Sim, geo Geometry, rng *randx.Stream) *Disk {
	d := &Disk{Geo: geo, s: s, rng: rng, dirUp: true, work: sim.NewSignal(s)}
	s.Spawn("disk", d.serve)
	return d
}

// Submit enqueues an access and returns a completion flag. It never blocks,
// so it models asynchronous I/O; use flag.Wait for synchronous semantics.
func (d *Disk) Submit(a Addr, k Kind) *sim.Flag {
	if a.Cyl < 0 || a.Cyl >= d.Geo.Cylinders || a.Slot < 0 || a.Slot >= d.Geo.CylPages {
		panic(fmt.Sprintf("diskmodel: address %+v out of range", a))
	}
	r := &request{addr: a, kind: k, done: sim.NewFlag(d.s), enq: d.s.Now(), seq: d.seq}
	d.seq++
	d.q = append(d.q, r)
	d.work.Broadcast()
	return r.done
}

// Read performs a synchronous page read from the calling process.
func (d *Disk) Read(p *sim.Proc, a Addr) {
	d.Submit(a, Read).Wait(p)
}

// Write performs a synchronous page write from the calling process.
func (d *Disk) Write(p *sim.Proc, a Addr) {
	d.Submit(a, Write).Wait(p)
}

func (d *Disk) serve(p *sim.Proc) {
	for {
		if len(d.q) == 0 {
			d.work.Wait(p)
			continue
		}
		i := d.pickNext()
		r := d.q[i]
		d.q = append(d.q[:i], d.q[i+1:]...)
		p.Sleep(d.serviceTime(r))
		if r.kind == Read {
			d.Stats.Reads++
		} else {
			d.Stats.Writes++
		}
		d.Stats.TotalAccessTime += p.Now() - r.enq
		r.done.Set()
	}
}

// pickNext chooses the next request in SCAN (elevator) order. A request that
// sequentially continues the last serviced access is preferred outright,
// since the head is already positioned for it.
func (d *Disk) pickNext() int {
	if d.lastValid {
		for i, r := range d.q {
			if r.addr.Cyl == d.lastAddr.Cyl && r.addr.Slot == d.lastAddr.Slot+1 {
				return i
			}
		}
	}
	best := d.scanPick(d.dirUp)
	if best < 0 {
		d.dirUp = !d.dirUp
		best = d.scanPick(d.dirUp)
	}
	if best < 0 {
		// Only requests exactly at the head in the reversed direction remain;
		// scanPick covers cyl == headCyl in both directions, so this cannot
		// happen unless the queue is empty.
		panic("diskmodel: elevator found no request in non-empty queue")
	}
	return best
}

// scanPick returns the queue index of the closest request in the given
// direction (inclusive of the current cylinder), or -1 if none.
func (d *Disk) scanPick(up bool) int {
	best := -1
	for i, r := range d.q {
		c := r.addr.Cyl
		if up && c < d.headCyl || !up && c > d.headCyl {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := d.q[best]
		di := c - d.headCyl
		db := b.addr.Cyl - d.headCyl
		if di < 0 {
			di = -di
		}
		if db < 0 {
			db = -db
		}
		switch {
		case di != db:
			if di < db {
				best = i
			}
		case r.addr.Slot != b.addr.Slot:
			if r.addr.Slot < b.addr.Slot {
				best = i
			}
		default:
			if r.seq < b.seq {
				best = i
			}
		}
	}
	return best
}

func (d *Disk) serviceTime(r *request) time.Duration {
	dcyl := r.addr.Cyl - d.headCyl
	if dcyl < 0 {
		dcyl = -dcyl
	}
	seek := d.Geo.SeekTime(dcyl)
	sequential := d.lastValid && dcyl == 0 &&
		r.addr.Cyl == d.lastAddr.Cyl && r.addr.Slot == d.lastAddr.Slot+1
	var rot time.Duration
	if !sequential {
		rot = time.Duration(d.rng.Uniform(0, float64(d.Geo.RotateTime)))
	}
	xfer := d.Geo.TransferTime()
	d.headCyl = r.addr.Cyl
	d.lastAddr = r.addr
	d.lastValid = true
	d.Stats.BusyTime += seek + rot + xfer
	d.Stats.SeekTime += seek
	if dcyl > 0 {
		d.Stats.Seeks++
	}
	return seek + rot + xfer
}
