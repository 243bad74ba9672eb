package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/memadapt/masort"
	"github.com/memadapt/masort/trace"
)

// runner executes reps of one workload at one seed.
type runner struct {
	w       workload
	seed    uint64
	tmpRoot string // every store directory is created (and removed) under it
	in      input
	reps    int // reps started so far, the traced rep's id

	// wrap, when set, is put around the store the operator sees. Tests use
	// it to inject faults the verifier and the leak checks must catch.
	wrap func(s masort.RunStore, dir string) masort.RunStore
}

// repResult is what one rep measured. Err is why it failed, if it did.
type repResult struct {
	Err error

	Setup, Sort, Drain, Verify time.Duration

	Stats      masort.Stats
	Counters   masort.Counters
	InputPages int
	AllocBytes uint64
	GCCycles   uint32
	GCPause    time.Duration
	CPU        time.Duration

	// Fluctuating workloads only.
	Targets       []int
	ReactionPages []int64
	ReactionMs    []float64

	// Traced rep only. The page counts and Segments are taken as the
	// operator returns, before the drain adds its own reads.
	PagesWritten int64
	PagesRead    int64
	Segments     int64
	TraceEvents  int64
	PeakLiveHeap uint64
}

// response is the paper's metric: the operator's wall time plus a full
// drain of its output.
func (r repResult) response() time.Duration { return r.Sort + r.Drain }

// ioRatio is pages moved through the store per input page.
func (r repResult) ioRatio() float64 {
	if r.InputPages == 0 {
		return 0
	}
	s := r.Stats
	return float64(s.RunPagesWritten+s.MergePagesRead+s.MergePagesWritten) / float64(r.InputPages)
}

// backing is the concrete store of one rep, kept beside whatever wrappers
// the operator sees so the leak checks look at the real thing.
type backing struct {
	dir  string // "" for a MemStore
	file *masort.FileStore
	mem  *masort.MemStore
}

func (r *runner) openBacking() (*backing, error) {
	if !r.w.File {
		return &backing{mem: masort.NewMemStore()}, nil
	}
	dir, err := os.MkdirTemp(r.tmpRoot, "runs-")
	if err != nil {
		return nil, err
	}
	fs, err := masort.NewStoreConfig().File(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &backing{dir: dir, file: fs}, nil
}

func (b *backing) store() masort.RunStore {
	if b.file != nil {
		return b.file
	}
	return b.mem
}

// leaks reports what the operator left behind after its result was closed.
func (b *backing) leaks() error {
	if b.mem != nil {
		if n := b.mem.Live(); n != 0 {
			return fmt.Errorf("leak: %d runs live in the MemStore", n)
		}
		return nil
	}
	if n := b.file.Live(); n != 0 {
		return fmt.Errorf("leak: %d runs live in the FileStore", n)
	}
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return err
	}
	if len(ents) != 0 {
		return fmt.Errorf("leak: %d files left in %s", len(ents), b.dir)
	}
	return nil
}

// close releases the store and its directory whatever state the rep ended
// in.
func (b *backing) close() error {
	if b.file == nil {
		return nil
	}
	err := b.file.Close()
	if rmErr := os.RemoveAll(b.dir); err == nil {
		err = rmErr
	}
	return err
}

// eventCounter is a trace sink that only counts what it is handed.
type eventCounter struct{ n atomic.Int64 }

func (c *eventCounter) Emit(trace.Event) { c.n.Add(1) }

// rep runs one rep: set-up (input, fingerprint, fresh store, input runs),
// the timed operator call and count-only drain, then the untimed
// verification pass, Close and the leak checks. With rec set it is the
// traced rep: the timing store, WithEvents and WithTracer are on.
func (r *runner) rep(ctx context.Context, rec *recorder) (res repResult) {
	w := r.w
	r.reps++
	root := rec.enter(-1, spanRep, -1)
	cur := rec.enter(-1, spanSetup, root)
	defer func() {
		rec.end(cur)
		rec.end(root)
	}()
	fail := func(err error) repResult {
		if res.Err == nil {
			res.Err = err
		}
		return res
	}

	setupStart := time.Now()
	r.in.generate(w, r.seed)
	budget := masort.NewBudget(w.Budget)
	b, err := r.openBacking()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := b.close(); err != nil {
			fail(err)
		}
	}()
	store := b.store()
	if r.wrap != nil {
		store = r.wrap(store, b.dir)
	}
	var ids []masort.RunID
	res.InputPages = w.inputPages()
	for i := 0; i < w.Runs; i++ {
		id, _, err := masort.WriteRun(store, masort.NewSliceIterator(r.in.run(w, i)), pageRecords)
		if err != nil {
			return fail(fmt.Errorf("write input run %d: %w", i, err))
		}
		ids = append(ids, id)
	}
	var fluct *fluctDriver
	if w.Fluct {
		fluct = newFluctDriver(w, budget, rec)
	}
	var counts *countingStore
	if fluct != nil || rec != nil {
		counts = &countingStore{RunStore: store, fluct: fluct}
		store = counts
	}
	opts := []masort.Option{masort.WithPageRecords(pageRecords), masort.WithBudget(budget)}
	if w.Workers > 1 {
		opts = append(opts, masort.WithWorkers(w.Workers))
	}
	// Every rep starts from a collected heap, so one rep's garbage is not
	// the next one's GC cycle.
	runtime.GC()
	res.Setup = time.Since(setupStart)

	cur = rec.enter(cur, spanSort, root)
	var events eventCounter
	var heap *heapSampler
	if rec != nil {
		store = &timingStore{RunStore: store, rec: rec}
		opts = append(opts,
			masort.WithEvents(rec.onEvent(cur)),
			masort.WithTracer(trace.Multi(trace.NewMetrics(), &events)))
		heap = startHeapSampler()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	opStart := time.Now()
	var out *masort.Result
	if w.Runs > 0 {
		out, err = masort.Merge(ctx, store, ids, opts...)
	} else {
		out, err = masort.Sort(ctx, masort.NewSliceIterator(r.in.recs), append(opts, masort.WithStore(store))...)
	}
	res.Sort = time.Since(opStart)
	if fluct != nil {
		fluct.stop()
		res.Targets, res.ReactionPages, res.ReactionMs = fluct.targets, fluct.reactionPages, fluct.reactionMs
	}
	cur = rec.enter(cur, spanDrain, root)
	if rec != nil {
		res.PagesWritten, res.PagesRead = counts.pagesWritten.Load(), counts.pagesRead.Load()
		// Runs the operator holds that it did not free are its output
		// segments (a merge's input runs were created during set-up).
		res.Segments = int64(len(ids)) + counts.creates.Load() - counts.frees.Load()
	}
	if err != nil {
		heap.stop()
		return fail(fmt.Errorf("%s: %w", w.Name, err))
	}
	defer func() {
		if out != nil {
			fail(out.Close())
		}
	}()
	res.Stats, res.Counters = out.Stats, out.Counters

	drainStart := time.Now()
	n, err := countRecords(out.Iterator())
	res.Drain = time.Since(drainStart)
	res.CPU = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	res.PeakLiveHeap = heap.stop()
	res.TraceEvents = events.n.Load()
	cur = rec.enter(cur, spanVerify, root)
	if err != nil {
		return fail(fmt.Errorf("drain: %w", err))
	}

	verifyStart := time.Now()
	if n != r.in.want.N {
		fail(fmt.Errorf("verify: drained %d records, want %d", n, r.in.want.N))
	}
	if err := verify(out.Iterator(), r.in.want); err != nil {
		fail(err)
	}
	err = out.Close()
	out = nil
	if err != nil {
		fail(fmt.Errorf("close result: %w", err))
	}
	if g := budget.Granted(); g != 0 {
		fail(fmt.Errorf("leak: budget still has %d pages granted", g))
	}
	if err := b.leaks(); err != nil {
		fail(err)
	}
	res.Verify = time.Since(verifyStart)
	return res
}

func countRecords(it masort.Iterator) (int, error) {
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// verify checks that it yields records in non-decreasing masort.Less order
// and that they are exactly the multiset want describes.
func verify(it masort.Iterator, want fingerprint) error {
	var got fingerprint
	var prev masort.Record
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if !ok {
			break
		}
		if got.N > 0 && masort.Less(rec, prev) {
			return fmt.Errorf("verify: record %d (key %d) sorts before its predecessor (key %d)", got.N, rec.Key, prev.Key)
		}
		prev = rec
		got.add(rec)
	}
	if got != want {
		return fmt.Errorf("verify: output fingerprint %+v differs from the input's %+v", got, want)
	}
	return nil
}

// processCPU is the user + system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the runtime's live-heap gauge (bytes the last GC cycle
// marked reachable) while the traced operator runs, keeping the peak above
// the level it started from.
type heapSampler struct {
	base uint64
	peak uint64
	quit chan struct{}
	done chan struct{}
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler must follow a forced GC, so that base is the heap the
// operator inherits (the input, mostly).
func startHeapSampler() *heapSampler {
	h := &heapSampler{base: readLiveHeap(), quit: make(chan struct{}), done: make(chan struct{})}
	h.peak = h.base
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.peak = max(h.peak, readLiveHeap())
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak above base. A nil sampler
// (untraced rep) returns 0.
func (h *heapSampler) stop() uint64 {
	if h == nil {
		return 0
	}
	close(h.quit)
	<-h.done
	return max(h.peak, readLiveHeap()) - h.base
}
