// Package simenv executes the core sorting algorithms inside the
// discrete-event simulator, reproducing the paper's Figure 4 system model:
// a Source issuing external sorts one after another, a Transaction Manager
// (the sort/join operators themselves), a Buffer Manager with competing
// memory-request streams, a CPU Manager and a Disk Manager.
package simenv

import (
	"fmt"
	"time"

	"github.com/memadapt/masort/internal/bufmgr"
	"github.com/memadapt/masort/internal/core"
	"github.com/memadapt/masort/internal/diskmodel"
	"github.com/memadapt/masort/internal/randx"
	"github.com/memadapt/masort/internal/sim"
)

// binding ties one source process and the operator it is currently
// executing to the system's resources. All core.Env interfaces hang off it;
// the pool handle is the operator's core.Broker as it stands.
type binding struct {
	*system
	p     *sim.Proc
	mem   *bufmgr.OpHandle
	phase string
}

func (b *binding) chargeIO(pages int) {
	c := &b.cfg.Costs
	b.cpu.Charge(b.p, int64(pages)*(c.StartIO+c.FixPage))
}

// ---- Meter ----

type simMeter struct{ b *binding }

func (m simMeter) Charge(op core.Op, n int64) {
	var instr int64
	c := &m.b.cfg.Costs
	switch op {
	case core.OpCompare:
		instr = c.Compare
	case core.OpCopyTuple:
		instr = c.CopyTuple
	case core.OpBuildEntry:
		instr = c.BuildEntry
	case core.OpSwapEntry:
		instr = c.SwapEntry
	case core.OpStartIO:
		instr = c.StartIO
	case core.OpFixPage:
		instr = c.FixPage
	}
	m.b.cpu.Charge(m.b.p, n*instr)
}

// ---- Input: relation scan ----

// relationInput reads a relation sequentially, one page per call, paying
// disk and CPU costs. Page contents are generated deterministically from
// the master seed, so every algorithm variant sorts identical data (and
// validation code can regenerate them host-side with RelationKeys).
type relationInput struct {
	b        *binding
	rel      int
	pages    int
	next     int
	rng      *randx.Stream
	prec     int
	keySpace uint64 // 0 = full uint64 space
}

func newRelationInput(b *binding, rel, pages, pageRecords int) *relationInput {
	return &relationInput{
		b:     b,
		rel:   rel,
		pages: pages,
		prec:  pageRecords,
		rng:   randx.New(b.cfg.Seed, fmt.Sprintf("relation-%d", rel)),
	}
}

func (in *relationInput) NextPage() (core.Page, bool, error) {
	if in.next >= in.pages {
		return nil, false, nil
	}
	disk, addr := in.b.layout.RelationAddr(in.rel, in.next)
	in.next++
	in.b.chargeIO(1)
	in.b.disks[disk].Read(in.b.p, addr)
	pg := make(core.Page, in.prec)
	for i := range pg {
		k := in.rng.Uint64()
		if in.keySpace > 0 {
			k %= in.keySpace
		}
		pg[i] = core.Record{Key: k}
	}
	return pg, true, nil
}

// RelationKeys regenerates a relation's keys host-side (validation only).
func RelationKeys(seed uint64, rel, pages, pageRecords int, keySpace uint64) []uint64 {
	rng := randx.New(seed, fmt.Sprintf("relation-%d", rel))
	keys := make([]uint64, pages*pageRecords)
	for i := range keys {
		k := rng.Uint64()
		if keySpace > 0 {
			k %= keySpace
		}
		keys[i] = k
	}
	return keys
}

// ---- RunStore over temp extents ----

// simRun holds a run's page data (host-side) and its disk placement.
type simRun struct {
	extents []diskmodel.TempExtent
	sumExt  int // pages covered by extents
	pages   []core.Page
	freed   bool
}

// addrOf maps run-relative page i onto a disk address.
func (r *simRun) addrOf(l *diskmodel.Layout, i int) (int, diskmodel.Addr) {
	for _, e := range r.extents {
		if i < e.N {
			return l.TempAddr(e, i)
		}
		i -= e.N
	}
	panic(fmt.Sprintf("simenv: page %d beyond run extents", i))
}

type simStore struct {
	b           *binding
	runs        map[core.RunID]*simRun
	next        core.RunID
	extentPages int
}

func newSimStore(b *binding) *simStore {
	return &simStore{b: b, runs: map[core.RunID]*simRun{}, extentPages: 64}
}

func (s *simStore) Create() (core.RunID, error) {
	id := s.next
	s.next++
	s.runs[id] = &simRun{}
	return id, nil
}

type simToken struct {
	p     *sim.Proc
	flags []*sim.Flag
}

func (t simToken) Wait() error {
	for _, f := range t.flags {
		f.Wait(t.p)
	}
	return nil
}

func (s *simStore) Append(id core.RunID, pages []core.Page) (core.Token, error) {
	r, ok := s.runs[id]
	if !ok || r.freed {
		return nil, fmt.Errorf("simenv: append to unknown/freed run %d", id)
	}
	tok := simToken{p: s.b.p}
	for _, pg := range pages {
		i := len(r.pages)
		for i >= r.sumExt {
			e, err := s.b.layout.AllocTemp(s.extentPages)
			if err != nil {
				return nil, err
			}
			r.extents = append(r.extents, e)
			r.sumExt += e.N
		}
		disk, addr := r.addrOf(s.b.layout, i)
		cp := make(core.Page, len(pg))
		copy(cp, pg)
		r.pages = append(r.pages, cp)
		s.b.chargeIO(1)
		tok.flags = append(tok.flags, s.b.disks[disk].Submit(addr, diskmodel.Write))
	}
	return tok, nil
}

type simPageToken struct {
	p    *sim.Proc
	flag *sim.Flag
	pg   core.Page
	err  error
}

func (t simPageToken) Wait() (core.Page, error) {
	if t.err != nil {
		return nil, t.err
	}
	t.flag.Wait(t.p)
	return t.pg, nil
}

func (s *simStore) ReadAsync(id core.RunID, page int) core.PageToken {
	r, ok := s.runs[id]
	if !ok || r.freed {
		return simPageToken{err: fmt.Errorf("simenv: read of unknown/freed run %d", id)}
	}
	if page < 0 || page >= len(r.pages) {
		return simPageToken{err: fmt.Errorf("simenv: run %d has no page %d", id, page)}
	}
	disk, addr := r.addrOf(s.b.layout, page)
	s.b.chargeIO(1)
	return simPageToken{p: s.b.p, flag: s.b.disks[disk].Submit(addr, diskmodel.Read), pg: r.pages[page]}
}

func (s *simStore) Pages(id core.RunID) int { return len(s.runs[id].pages) }

func (s *simStore) Free(id core.RunID) error {
	r, ok := s.runs[id]
	if !ok || r.freed {
		return fmt.Errorf("simenv: double free of run %d", id)
	}
	r.freed = true
	for _, e := range r.extents {
		s.b.layout.FreeTemp(e)
	}
	r.pages = nil
	return nil
}

// data returns a run's full contents (host-side, for validation only).
func (s *simStore) data(id core.RunID) []core.Record {
	var out []core.Record
	for _, p := range s.runs[id].pages {
		out = append(out, p...)
	}
	return out
}

// newEnv assembles a core.Env for one operator process.
func (b *binding) newEnv(store *simStore) *core.Env {
	return &core.Env{
		Store: store,
		Mem:   b.mem,
		Meter: simMeter{b},
		Now:   func() time.Duration { return b.s.Now() },
		SetPhase: func(p string) {
			b.phase = p
		},
		SetReclaim: b.mem.SetReclaimer,
		// The CPU model charges the classic heap's comparison counts.
		ClassicSelection: true,
	}
}
