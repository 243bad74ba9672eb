package masort_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"github.com/memadapt/masort"
	"github.com/memadapt/masort/internal/faultinject"
	"github.com/memadapt/masort/storetest"
)

// scheduleCase is what one FuzzSortSchedule input decodes to. Every field
// is taken modulo the number of its choices, so any byte string is a case.
type scheduleCase struct {
	op      uint8 // sort, merge, join, groupby
	shape   uint8 // random, presorted, reverse, sawtooth, few-distinct
	payload uint8 // 0, 4, 8, 9 or 16 bytes, or mixed lengths
	method  uint8 // quick, repl1, repl6
	merge   uint8 // optimized, naive
	adapt   uint8 // split, page, susp
	store   uint8 // mem, file, striped over 2 directories, mmap
	policy  uint8 // the Budget's AdmissionPolicy: admit all, queue, reject
	pageRec uint8 // 4, 8 or 16 records a page
	pages   uint8 // the starting target: 3 (the floor) to 16 pages
	every   uint8 // page operations between two steps of the schedule
	fault   uint8 // no faults, or one of faultRules (with retries)
	runs    uint8 // Merge: the sorted input runs the records are dealt into
	records uint16
	// cancelAt, when not 0, cancels the operation at that page operation.
	cancelAt uint16
	seed     uint64
	// schedule holds the targets the memory moves through, one step every
	// `every` page operations from the operator's call into its drain,
	// each from 3 (the floor) to 16 pages. Empty: a fixed target.
	schedule []byte
}

const scheduleHeader = 13 + 2 + 2 + 8

func (c scheduleCase) encode() []byte {
	b := []byte{c.op, c.shape, c.payload, c.method, c.merge, c.adapt, c.store, c.policy, c.pageRec, c.pages, c.every, c.fault, c.runs}
	b = binary.LittleEndian.AppendUint16(b, c.records)
	b = binary.LittleEndian.AppendUint16(b, c.cancelAt)
	b = binary.LittleEndian.AppendUint64(b, c.seed)
	return append(b, c.schedule...)
}

func decodeScheduleCase(b []byte) scheduleCase {
	h := make([]byte, scheduleHeader)
	copy(h, b)
	return scheduleCase{
		op: h[0] % 4, shape: h[1] % 5, payload: h[2] % 6, method: h[3] % 3, merge: h[4] % 2,
		adapt: h[5] % 3, store: h[6] % 4, policy: h[7] % 3, pageRec: h[8] % 3, pages: h[9] % 14,
		every: h[10], fault: h[11] % uint8(len(faultRules)+1), runs: h[12],
		records:  binary.LittleEndian.Uint16(h[13:]) % 1200,
		cancelAt: binary.LittleEndian.Uint16(h[15:]) % 4000,
		seed:     binary.LittleEndian.Uint64(h[17:]),
		schedule: b[min(len(b), scheduleHeader):],
	}
}

// faultRules are the fault schedules a case may run under, each on a store
// that retries three times: what heals, and what fails the operation with
// ErrStoreFailed or ErrCorruptPage.
var faultRules = []func(seed uint64) *faultinject.Injector{
	func(uint64) *faultinject.Injector {
		return faultinject.New(faultinject.Rule{Op: faultinject.Read, Nth: 2, Count: 1,
			Fault: faultinject.Fault{Err: faultinject.Transient("read blip")}})
	},
	func(uint64) *faultinject.Injector {
		return faultinject.New(faultinject.Rule{Op: faultinject.Write, Nth: 1, Count: 1,
			Fault: faultinject.Fault{Err: faultinject.Transient("torn"), Short: 7}})
	},
	func(uint64) *faultinject.Injector {
		return faultinject.New(faultinject.Rule{Op: faultinject.Read, Nth: 1, Count: 1,
			Fault: faultinject.Fault{FlipBit: 42}})
	},
	func(uint64) *faultinject.Injector {
		return faultinject.New(faultinject.Rule{Op: faultinject.Write, Nth: 40,
			Fault: faultinject.Fault{Err: syscall.ENOSPC}})
	},
	func(uint64) *faultinject.Injector {
		return faultinject.New(faultinject.Rule{Op: faultinject.Read, Every: 1,
			Fault: faultinject.Fault{FlipBit: 7}})
	},
	func(seed uint64) *faultinject.Injector {
		return faultinject.NewSeeded(seed, faultinject.Profile{PTransientRead: 0.05, PTransientWrite: 0.05,
			PPermanentWrite: 0.02, PBitFlip: 0.03, PShortWrite: 0.5})
	},
}

// scheduleSeeds name every value of every dimension at least once.
var scheduleSeeds = []scheduleCase{
	{op: 0, shape: 0, payload: 0, method: 0, merge: 0, adapt: 0, store: 0, pageRec: 1, pages: 5, records: 900, seed: 1},
	{op: 0, shape: 1, payload: 4, method: 1, merge: 1, adapt: 1, store: 1, pageRec: 0, pages: 3, every: 9, records: 700, seed: 2,
		schedule: []byte{0, 9, 2, 13, 0, 5}},
	{op: 0, shape: 2, payload: 3, method: 2, merge: 0, adapt: 2, store: 2, policy: 1, pageRec: 1, pages: 6, every: 11, records: 1100, seed: 3,
		schedule: []byte{2, 0, 9, 1, 0}},
	{op: 1, shape: 3, payload: 5, method: 0, merge: 1, adapt: 2, store: 3, pageRec: 0, pages: 4, every: 7, runs: 19, records: 800, seed: 4,
		schedule: []byte{0, 13, 1}},
	{op: 2, shape: 4, payload: 1, method: 2, merge: 0, adapt: 0, store: 0, pageRec: 0, pages: 5, every: 13, records: 600, seed: 5,
		schedule: []byte{5, 0, 11, 2}},
	{op: 3, shape: 4, payload: 2, method: 1, merge: 1, adapt: 1, store: 1, policy: 1, pageRec: 2, pages: 2, every: 5, records: 1000, seed: 6,
		schedule: []byte{0, 4, 0, 10}},
	{op: 0, shape: 0, payload: 5, method: 2, adapt: 0, store: 1, pageRec: 1, pages: 4, fault: 1, records: 700, seed: 7},
	{op: 0, shape: 3, payload: 4, method: 0, adapt: 1, store: 0, pageRec: 1, pages: 4, fault: 2, records: 700, seed: 8},
	{op: 3, shape: 0, payload: 3, method: 2, adapt: 2, store: 2, pageRec: 1, pages: 5, fault: 3, records: 700, seed: 9},
	{op: 1, shape: 0, payload: 2, method: 0, adapt: 0, store: 3, pageRec: 0, pages: 3, fault: 4, runs: 11, records: 600, seed: 10},
	{op: 2, shape: 1, payload: 1, method: 1, adapt: 1, store: 1, policy: 1, pageRec: 0, pages: 4, fault: 5, records: 500, seed: 11},
	{op: 0, shape: 2, payload: 0, method: 1, adapt: 2, store: 0, pageRec: 1, pages: 3, fault: 6, records: 800, seed: 12},
	{op: 0, shape: 0, payload: 1, method: 1, adapt: 0, store: 1, pageRec: 0, pages: 3, cancelAt: 40, records: 1100, seed: 13},
	{op: 0, shape: 4, payload: 4, method: 2, adapt: 2, store: 0, policy: 1, pageRec: 0, pages: 6, every: 3, cancelAt: 400, records: 1100, seed: 14,
		schedule: []byte{0, 3}},
	{op: 1, shape: 2, payload: 5, method: 0, adapt: 0, store: 2, pageRec: 0, pages: 3, cancelAt: 1, runs: 4, records: 500, seed: 15},
	{op: 2, shape: 3, payload: 0, method: 0, adapt: 2, store: 3, pageRec: 0, pages: 3, cancelAt: 150, records: 700, seed: 16},
	{op: 3, shape: 1, payload: 4, method: 0, adapt: 0, store: 2, pageRec: 0, pages: 4, cancelAt: 300, records: 900, seed: 17},
	{op: 1, shape: 0, payload: 0, store: 0, pages: 3, runs: 0, records: 200, seed: 18},
	{op: 0, shape: 0, payload: 0, store: 1, pages: 3, records: 0, seed: 19},
	{op: 0, shape: 0, payload: 2, method: 2, adapt: 1, store: 1, pageRec: 2, pages: 13, cancelAt: 100, records: 1100, seed: 20},
	// The cancel lands on the split's last append, after its last check: the
	// static plan's first step boundary sees it and frees every run.
	{op: 0, shape: 0, payload: 1, method: 0, adapt: 1, store: 0, pageRec: 0, pages: 5, cancelAt: 202, records: 810, seed: 21},
	// A write fails while a combine is undone: the preliminary step it had
	// drained must still be freed with the chain.
	{op: 1, shape: 3, payload: 5, method: 0, merge: 1, adapt: 0, store: 1, pageRec: 0, pages: 0, every: 32, fault: 6, runs: 66,
		records: 848, cancelAt: 336, seed: 4840016307391889464, schedule: []byte{48, 48, 48, 55, 56}},
	// A Budget that rejects when full, shrunk under a suspending merge: no
	// owner stands behind it, so every suspension's wait is bounded by the
	// target.
	{op: 0, shape: 0, payload: 4, method: 2, merge: 0, adapt: 2, store: 0, policy: 2, pageRec: 1, pages: 9, every: 7, records: 1000, seed: 23,
		schedule: []byte{0, 11, 0, 6}},
}

// FuzzSortSchedule is the engine's property over the public API: whatever
// the operator, input shape, payload lengths, algorithm (method x merge
// strategy x adaptation), store, memory schedule, faults and cancellation,
//
//   - the drained output, every record held to the end, equals the oracle
//     (slices.SortFunc on (key, payload); the nested-loop join; the fold),
//     or the operation fails with ErrStoreFailed or ErrCorruptPage in its
//     chain under faults, or with ErrCanceled and context.Canceled once
//     canceled;
//   - no case reaches its 10 s deadline;
//   - after Close, the store holds no run, the Budget grants no page and
//     has no operator and no reservation, whatever its policy, and
//     goroutines settle back to their count before the case.
//
// The store is wrapped in storetest.PoisonOnRelease, so a page used after
// its release shows as wrong output. The schedule is keyed on page
// operations, never on wall-clock time, and the memory's owner restores the
// largest target of the case whenever a step suspends (a suspended step
// issues no page operations that could, and waits for all that its step was
// planned on).
//
// Composition — an operator reading another's held Result on the same
// Budget — is left out: a pipeline under Suspension on an AdmitAll Budget
// resized to 6 pages or fewer, and a FuncIterator-wrapped input on a
// queueing Budget of 4 or 5 pages, still wait on themselves (ROADMAP, "No pipeline waits on
// itself"), so the dimension joins this target with their fix.
//
// Run it with
//
//	go test -run '^$' -fuzz FuzzSortSchedule -fuzztime 60s .
func FuzzSortSchedule(f *testing.F) {
	for _, c := range scheduleSeeds {
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeScheduleCase(b).run(t)
	})
}

// input draws the case's records in its shape.
func (c scheduleCase) input(n int, seed uint64) []masort.Record {
	rng := rand.New(rand.NewPCG(c.seed, seed))
	period := 2 + int(c.seed%61)
	recs := make([]masort.Record, n)
	for i := range recs {
		var k uint64
		switch c.shape {
		case 0:
			k = rng.Uint64N(uint64(2*n + 1))
		case 1:
			k = uint64(i)
		case 2:
			k = uint64(n - i)
		case 3:
			k = uint64(i % period)
		case 4:
			k = rng.Uint64N(4)
		}
		size := []int{0, 4, 8, 9, 16}[min(int(c.payload), 4)]
		if c.payload == 5 {
			size = rng.IntN(21)
		}
		var p []byte
		if size > 0 {
			p = make([]byte, size)
			for j := range p {
				p[j] = byte(rng.Uint32())
			}
		}
		recs[i] = masort.Record{Key: k, Payload: p}
	}
	return recs
}

// liveStore is a built-in store: its live runs can be counted, and it
// closes.
type liveStore interface {
	masort.RunStore
	Live() int
	Close() error
}

// open builds the case's store, under its fault rule when it has one.
func (c scheduleCase) open(t *testing.T) liveStore {
	cfg := masort.NewStoreConfig()
	if c.fault > 0 {
		cfg = cfg.WithFaults(faultRules[c.fault-1](c.seed)).
			WithRetry(masort.RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond})
	}
	var (
		s   liveStore
		err error
	)
	switch c.store {
	case 0:
		s = masort.NewMemStoreWith(cfg)
	case 1:
		s, err = cfg.File(t.TempDir())
	case 2:
		s, err = cfg.File(t.TempDir(), t.TempDir())
	case 3:
		s, err = cfg.Mmap(t.TempDir())
		if errors.Is(err, masort.ErrMmapUnsupported) {
			t.Skip("mmap not supported on this platform")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (c scheduleCase) run(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	inner := c.open(t)
	live := &livePages{RunStore: storetest.PoisonOnRelease(inner), pages: map[masort.RunID]int{}}
	start := 3 + int(c.pages)
	budget := masort.NewBudget(start, masort.WithAdmissionPolicy(masort.AdmissionPolicy(c.policy)))
	store := &masort.ResizeOnOps{RunStore: live, Resize: budget.Resize, Every: 1 + int64(c.every%32), CancelAt: int64(c.cancelAt), Cancel: cancel}
	top := start // what the owner restores: no step was planned on more
	for _, p := range c.schedule {
		store.Cycle = append(store.Cycle, 3+int(p%14))
		top = max(top, 3+int(p%14))
	}
	pageRecords := 4 << c.pageRec
	methods := [][]masort.Option{
		{masort.WithMethod(masort.Quicksort)},
		{masort.WithMethod(masort.ReplacementSelection), masort.WithBlockPages(1)},
		{masort.WithMethod(masort.ReplacementSelection), masort.WithBlockPages(6)},
	}
	opts := append(methods[c.method],
		masort.WithMergeStrategy([]masort.MergeStrategy{masort.Optimized, masort.Naive}[c.merge]),
		masort.WithAdaptation([]masort.Adaptation{masort.DynamicSplitting, masort.MRUPaging, masort.Suspension}[c.adapt]),
		masort.WithPageRecords(pageRecords), masort.WithStore(store), masort.WithBudget(budget),
		masort.WithEvents(func(ev masort.Event) {
			if ev.Kind == masort.EvSuspend {
				go budget.Resize(top)
			}
		}),
	)

	n := int(c.records)
	var (
		res  *masort.Result
		want []masort.Record
		err  error
	)
	switch c.op {
	case 0:
		in := c.input(n, 1)
		want = masort.SortedCopy(in)
		store.Arm()
		res, err = masort.Sort(ctx, masort.NewSliceIterator(in), opts...)
	case 1:
		var ids []masort.RunID
		if k := int(c.runs % 24); k > 0 {
			in := c.input(n, 2)
			want = masort.SortedCopy(in)
			for i := range k {
				var run []masort.Record
				for j := i; j < len(in); j += k {
					run = append(run, in[j])
				}
				var id masort.RunID
				if id, _, err = masort.WriteRun(store, masort.NewSliceIterator(masort.SortedCopy(run)), pageRecords); err != nil {
					break
				}
				ids = append(ids, id)
			}
		}
		if err != nil {
			for _, id := range ids {
				if ferr := store.Free(id); ferr != nil {
					t.Fatal(ferr)
				}
			}
			break
		}
		store.Arm()
		res, err = masort.Merge(ctx, store, ids, opts...)
	case 2:
		left, right := c.input(n/4, 3), c.input(n/4, 4)
		want = joinOracle(left, right)
		store.Arm()
		res, err = masort.Join(ctx, masort.NewSliceIterator(left), masort.NewSliceIterator(right), opts...)
	case 3:
		in := c.input(n, 5)
		var agg *masort.FuncAggregator
		agg, want = foldOracle(in)
		store.Arm()
		res, err = masort.GroupBy(ctx, masort.NewSliceIterator(in), agg, opts...)
	}
	var got []masort.Record
	if err == nil {
		got, err = masort.Drain(res.Iterator())
		if cerr := res.Close(); err == nil && cerr != nil {
			t.Fatalf("Close: %v", cerr)
		}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		t.Fatalf("%+v reached its deadline: %v", c, err)
	case err == nil:
		if c.op == 2 {
			slices.SortFunc(got, masort.ByKeyThenPayload)
		}
		masort.SameRecords(t, got, want)
	case c.fault > 0 && (errors.Is(err, masort.ErrStoreFailed) || errors.Is(err, masort.ErrCorruptPage)):
	case ctx.Err() != nil && errors.Is(err, masort.ErrCanceled) && errors.Is(err, context.Canceled):
	default:
		t.Fatalf("%+v: %v", c, err)
	}
	if n := inner.Live(); n != 0 || live.live() != 0 {
		t.Fatalf("%+v: %d runs (%d pages) live after Close", c, n, live.live())
	}
	if l := masort.Leftovers(budget); l != "" {
		t.Fatalf("%+v: %s after Close", c, l)
	}
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}
	masort.WaitGoroutines(t, base)
}
