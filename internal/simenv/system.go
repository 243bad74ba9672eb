package simenv

import (
	"fmt"
	"time"

	"github.com/memadapt/masort/internal/bufmgr"
	"github.com/memadapt/masort/internal/core"
	"github.com/memadapt/masort/internal/cpumodel"
	"github.com/memadapt/masort/internal/diskmodel"
	"github.com/memadapt/masort/internal/memload"
	"github.com/memadapt/masort/internal/randx"
	"github.com/memadapt/masort/internal/sim"
)

// Config describes one simulated experiment: the paper's Tables 2–4
// parameters plus the algorithm under test.
type Config struct {
	Seed uint64

	// Physical resources (Table 3).
	Geometry    diskmodel.Geometry
	NDisks      int
	CPUMips     float64
	Costs       cpumodel.CostTable
	MemoryPages int // M, the buffer pool size in 8 KB pages
	FloorPages  int // operator floor (DESIGN.md: MinSortPages)

	// Database (Table 2).
	NumRel      int
	RelPages    int // size of each relation, in pages
	PageRecords int // tuples per page (8 KB / 256 B = 32)

	// Workload.
	Fluct    memload.Config
	NumSorts int // sorts (or joins) to measure
	Algo     core.SortConfig

	// Join mode: perform R ⋈ S instead of sorting. The left relation has
	// RelPages pages, the right JoinRightPages. Join keys are drawn from
	// [0, JoinKeySpace) so equi-joins actually match (default 2^20).
	Join           bool
	JoinRightPages int
	JoinKeySpace   uint64

	// Validate re-checks every result for sortedness and completeness
	// (host-side, free of simulated cost).
	Validate bool
}

// MemoryMB converts M megabytes to pages the way the paper's tables do
// (8 KB pages: 0.3 MB -> 38 pages, 0.07 -> 9, 1.40 -> 179).
func MemoryMB(mb float64) int {
	return int(mb*1024/8 + 0.5)
}

// Default returns the paper's baseline configuration (Section 5.2):
// ‖R‖ = 20 MB (2560 pages), M = 0.3 MB (38 pages), 10 relations, 1 disk,
// 20 MIPS, baseline fluctuation, repl6,opt,split.
func Default() Config {
	return Config{
		Seed:        1,
		Geometry:    diskmodel.DefaultGeometry(),
		NDisks:      1,
		CPUMips:     20,
		Costs:       cpumodel.DefaultCosts(),
		MemoryPages: MemoryMB(0.3),
		FloorPages:  3,
		NumRel:      10,
		RelPages:    2560,
		PageRecords: 32,
		Fluct:       memload.Baseline(),
		NumSorts:    20,
		Algo:        core.DefaultConfig(),
		Validate:    true,
	}
}

// Result aggregates one experiment's measurements.
type Result struct {
	Sorts []core.SortStats
	Joins []core.JoinStats

	MeanResponse  time.Duration
	MeanSplitDur  time.Duration
	MeanMergeDur  time.Duration
	MeanRuns      float64
	MeanSteps     float64
	MeanExtraIO   float64
	TotalSplits   int
	TotalCombines int
	TotalSuspends int

	// Split-phase delays: how long competing requests waited while the sort
	// was in its split phase (Figure 9 / Table 8).
	SplitDelayMean time.Duration
	SplitDelayMax  time.Duration
	// Merge-phase delays (paper: consistently < 1 ms).
	MergeDelayMean time.Duration
	MergeDelayMax  time.Duration

	DiskStats   diskmodel.Stats
	CPUBusy     time.Duration
	SimDuration time.Duration
	Rejected    int
}

// system is one assembled instance of Figure 4: the simulator clock, the
// disk layout and disks, the CPU, and the buffer manager with its competing
// request streams. Source processes (run) issue operators against it.
type system struct {
	cfg    Config
	s      *sim.Sim
	cpu    *cpumodel.CPU
	disks  []*diskmodel.Disk
	layout *diskmodel.Layout
	pool   *bufmgr.SharedPool
	err    error // first operator failure; stops every source
}

// newSystem builds the system for `sources` concurrently executing
// operators. load prefixes the competing streams' RNG names.
func newSystem(cfg Config, sources int, load string) (*system, error) {
	floor := max(cfg.FloorPages, 3)
	if sources*floor > cfg.MemoryPages {
		return nil, fmt.Errorf("simenv: %d operators need %d pages of floor, have M=%d",
			sources, sources*floor, cfg.MemoryPages)
	}
	relSizes := make([]int, cfg.NumRel)
	for i := range relSizes {
		relSizes[i] = cfg.RelPages
	}
	if cfg.Join {
		relSizes = []int{cfg.RelPages, cfg.JoinRightPages}
	}
	layout, err := diskmodel.NewLayout(cfg.Geometry, cfg.NDisks, relSizes)
	if err != nil {
		return nil, err
	}
	s := sim.New()
	disks := make([]*diskmodel.Disk, cfg.NDisks)
	for i := range disks {
		disks[i] = diskmodel.New(s, cfg.Geometry, randx.New(cfg.Seed, fmt.Sprintf("disk-%d", i)))
	}
	sys := &system{
		cfg: cfg, s: s, cpu: cpumodel.New(s, cfg.CPUMips), disks: disks, layout: layout,
		pool: bufmgr.NewShared(s, cfg.MemoryPages, floor),
	}
	memload.Start(s, sys.pool, cfg.Fluct, cfg.Seed, load)
	return sys, nil
}

// run spawns one source process per name suffix; together they issue
// cfg.NumSorts operators, each source one after another, handing every
// finished operator's statistics to done. It returns when the last source
// has finished (or the first operator has failed).
func (sys *system) run(suffixes []string, done func(core.JoinStats)) error {
	started, running := 0, len(suffixes)
	for _, suffix := range suffixes {
		sys.s.Spawn("source"+suffix, func(p *sim.Proc) {
			defer func() {
				if running--; running == 0 {
					sys.s.Stop()
				}
			}()
			b := &binding{system: sys, p: p}
			relPick := randx.New(sys.cfg.Seed, "relation-choice"+suffix)
			for sys.err == nil && started < sys.cfg.NumSorts {
				started++
				st, err := b.operate(relPick)
				if err != nil {
					sys.err = err
					return
				}
				done(st)
			}
		})
	}
	if err := sys.s.Run(); err != nil {
		return err
	}
	return sys.err
}

// operate executes one operator on the binding's process: register with the
// buffer manager, sort one relation (or join the two), validate, free the
// result, check for leaked pages.
func (b *binding) operate(relPick *randx.Stream) (core.JoinStats, error) {
	cfg := &b.cfg
	var st core.JoinStats
	var result core.RunID
	h, err := b.pool.Register()
	if err != nil {
		return st, err
	}
	h.Bind(b.p)
	h.PhaseFn = func() string { return b.phase }
	b.mem = h
	store := newSimStore(b)
	env := b.newEnv(store)
	if cfg.Join {
		left := newRelationInput(b, 0, cfg.RelPages, cfg.PageRecords)
		right := newRelationInput(b, 1, cfg.JoinRightPages, cfg.PageRecords)
		left.keySpace = cfg.JoinKeySpace
		right.keySpace = cfg.JoinKeySpace
		jr, err := core.SortMergeJoin(env, left, right, cfg.Algo)
		if err != nil {
			return st, err
		}
		st, result = jr.Stats, jr.Result
	} else {
		env.In = newRelationInput(b, relPick.IntN(cfg.NumRel), cfg.RelPages, cfg.PageRecords)
		sr, err := core.ExternalSort(env, cfg.Algo)
		if err != nil {
			return st, err
		}
		if want := cfg.RelPages * cfg.PageRecords; cfg.Validate && sr.Tuples != want {
			return st, fmt.Errorf("simenv: sort produced %d tuples, want %d", sr.Tuples, want)
		}
		st.SortStats, result = sr.Stats, sr.Result
	}
	if cfg.Validate {
		if err := validateSorted(store, result); err != nil {
			return st, err
		}
	}
	if err := store.Free(result); err != nil {
		return st, err
	}
	st.FillModeledIO(8 << 10) // logical 8 KB pages
	if h.Granted() != 0 {
		return st, fmt.Errorf("simenv: operator finished holding %d pages", h.Granted())
	}
	b.pool.Unregister(h)
	// With no operator registered, every temp page still in use is a leak.
	if inUse := b.layout.TempInUse(); b.pool.Ops() == 0 && sumInts(inUse) != 0 {
		return st, fmt.Errorf("simenv: operator leaked temp pages: %v", inUse)
	}
	return st, nil
}

// Run executes the experiment and aggregates statistics.
func Run(cfg Config) (*Result, error) {
	if cfg.NumSorts <= 0 {
		cfg.NumSorts = 1
	}
	if cfg.Join && cfg.JoinKeySpace == 0 {
		cfg.JoinKeySpace = 1 << 20
	}
	sys, err := newSystem(cfg, 1, "memload")
	if err != nil {
		return nil, err
	}
	res := &Result{}
	err = sys.run([]string{""}, func(st core.JoinStats) {
		if cfg.Join {
			res.Joins = append(res.Joins, st)
		} else {
			res.Sorts = append(res.Sorts, st.SortStats)
		}
	})
	if err != nil {
		return nil, err
	}
	res.SimDuration = sys.s.Now()
	res.CPUBusy = sys.cpu.BusyTime()
	for _, d := range sys.disks {
		res.DiskStats.Reads += d.Stats.Reads
		res.DiskStats.Writes += d.Stats.Writes
		res.DiskStats.BusyTime += d.Stats.BusyTime
		res.DiskStats.TotalAccessTime += d.Stats.TotalAccessTime
		res.DiskStats.SeekTime += d.Stats.SeekTime
		res.DiskStats.Seeks += d.Stats.Seeks
	}
	res.Rejected = sys.pool.Rejected
	aggregate(res, sys.pool.Delays)
	return res, nil
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func validateSorted(store *simStore, id core.RunID) error {
	recs := store.data(id)
	for i := 1; i < len(recs); i++ {
		if core.Less(recs[i], recs[i-1]) {
			return fmt.Errorf("simenv: result run %d unsorted at %d", id, i)
		}
	}
	return nil
}

func aggregate(res *Result, delays []bufmgr.DelayRecord) {
	stats := res.Sorts
	if len(res.Joins) > 0 {
		for _, j := range res.Joins {
			stats = append(stats, j.SortStats)
		}
	}
	n := len(stats)
	if n == 0 {
		return
	}
	var resp, split, merge time.Duration
	var runs, steps, extra float64
	for _, st := range stats {
		resp += st.Response
		split += st.SplitDuration
		merge += st.MergeDuration
		runs += float64(st.Runs)
		steps += float64(st.MergeSteps)
		extra += float64(st.ExtraMergeReads)
		res.TotalSplits += st.Splits
		res.TotalCombines += st.Combines
		res.TotalSuspends += st.Suspensions
	}
	res.MeanResponse = resp / time.Duration(n)
	res.MeanSplitDur = split / time.Duration(n)
	res.MeanMergeDur = merge / time.Duration(n)
	res.MeanRuns = runs / float64(n)
	res.MeanSteps = steps / float64(n)
	res.MeanExtraIO = extra / float64(n)

	var splitDelays, mergeDelays []time.Duration
	for _, d := range delays {
		switch d.Phase {
		case "split":
			splitDelays = append(splitDelays, d.Delay)
		case "merge":
			mergeDelays = append(mergeDelays, d.Delay)
		}
	}
	res.SplitDelayMean, res.SplitDelayMax = meanMax(splitDelays)
	res.MergeDelayMean, res.MergeDelayMax = meanMax(mergeDelays)
}

func meanMax(ds []time.Duration) (mean, maxd time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
		if d > maxd {
			maxd = d
		}
	}
	return sum / time.Duration(len(ds)), maxd
}
