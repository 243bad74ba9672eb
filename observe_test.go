package masort

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/faultinject"
	"github.com/memadapt/masort/trace"
)

// collectTracer records every event under a mutex. Tracers must tolerate
// concurrent Emit calls (pool and store events can arrive off the operator
// goroutine), and a mutex is the simplest way to comply in a test.
type collectTracer struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (c *collectTracer) Emit(e trace.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

func (c *collectTracer) events() []trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.Event(nil), c.evs...)
}

// tracerFunc adapts a function to the Tracer interface.
type tracerFunc func(trace.Event)

func (f tracerFunc) Emit(e trace.Event) { f(e) }

// churnBudget fluctuates the budget between lo and hi pages on a background
// goroutine until the returned stop func is called, which restores hi.
func churnBudget(b *Budget, lo, hi int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(3, 9))
		for {
			select {
			case <-done:
				b.Resize(hi)
				return
			default:
				b.Resize(lo + rng.IntN(hi-lo))
				time.Sleep(150 * time.Microsecond)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// checkCountersMatchStats asserts the acceptance criterion of the metrics
// backend: for a single operator against a fresh registry, every counter
// equals the corresponding Result.Stats field.
func checkCountersMatchStats(t *testing.T, m *trace.Metrics, s Stats) {
	t.Helper()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"masort_runs_total", int64(s.Runs)},
		{"masort_merge_steps_total", int64(s.MergeSteps)},
		{"masort_splits_total", int64(s.Splits)},
		{"masort_combines_total", int64(s.Combines)},
		{"masort_suspensions_total", int64(s.Suspensions)},
		{"masort_resumes_total", int64(s.Suspensions)}, // every suspend resumes
		{"masort_store_reads_total", int64(s.StoreReads)},
		{"masort_store_writes_total", int64(s.StoreWrites)},
		{"masort_store_read_bytes_total", s.BytesRead},
		{"masort_store_write_bytes_total", s.BytesWritten},
	} {
		if got := m.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMetricsMatchStats(t *testing.T) {
	ctx := context.Background()

	t.Run("sort", func(t *testing.T) {
		m := trace.NewMetrics()
		in := randomRecords(120_000, 31, 0)
		budget := NewBudget(32)
		stop := churnBudget(budget, 3, 32)
		res, err := Sort(ctx, NewSliceIterator(in),
			WithPageRecords(64), WithBudget(budget), WithTracer(m))
		if err == nil {
			_, err = Drain(res.Iterator()) // the last merge step runs here
		}
		stop()
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		s := res.Stats
		// The fluctuating budget must have exercised the adaptive paths, or
		// the equalities below are vacuous.
		if s.Runs < 2 || s.MergeSteps < 1 || s.Splits < 1 {
			t.Fatalf("sort not adaptive enough to test: %+v", s)
		}
		if s.StoreWrites == 0 || s.BytesWritten == 0 {
			t.Fatalf("traced store measured no writes: %+v", s)
		}
		checkCountersMatchStats(t, m, s)
		if begun, done := m.Ops("sort"); begun != 1 || done != 1 {
			t.Fatalf("Ops(sort) = %d begun, %d done, want 1/1", begun, done)
		}
	})

	t.Run("suspension", func(t *testing.T) {
		m := trace.NewMetrics()
		in := randomRecords(80_000, 23, 0)
		budget := NewBudget(24)
		store := &ResizeOnOps{RunStore: NewMemStore(), Resize: budget.Resize, Cycle: []int{3}, Every: 100}
		res, err := Sort(ctx, NewSliceIterator(in),
			WithAdaptation(Suspension),
			WithPageRecords(64),
			WithBudget(budget),
			WithStore(store),
			WithTracer(m),
			WithEvents(func(ev Event) {
				switch {
				case ev.Kind == EvPhase && ev.Phase == "merge":
					store.Arm()
				case ev.Kind == EvSuspend:
					go budget.Resize(24)
				}
			}))
		if err == nil {
			_, err = Drain(res.Iterator()) // the last merge step runs here
		}
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		if res.Stats.Suspensions == 0 {
			t.Fatalf("no suspensions triggered: %+v", res.Stats)
		}
		checkCountersMatchStats(t, m, res.Stats)
	})

	t.Run("join", func(t *testing.T) {
		m := trace.NewMetrics()
		rng := rand.New(rand.NewPCG(7, 7))
		l := make([]Record, 4000)
		r := make([]Record, 2000)
		for i := range l {
			l[i] = Record{Key: rng.Uint64() % 1024, Payload: []byte{'L'}}
		}
		for i := range r {
			r[i] = Record{Key: rng.Uint64() % 1024, Payload: []byte{'R'}}
		}
		res, err := Join(ctx, NewSliceIterator(l), NewSliceIterator(r),
			WithPageRecords(32), WithBudget(NewBudget(10)), WithTracer(m))
		if err == nil {
			_, err = Drain(res.Iterator()) // the output is read here
		}
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		s := res.Stats
		if s.Runs != res.Join.LeftRuns+res.Join.RightRuns {
			t.Fatalf("join Runs %d != left %d + right %d",
				s.Runs, res.Join.LeftRuns, res.Join.RightRuns)
		}
		checkCountersMatchStats(t, m, s)
		if begun, done := m.Ops("join"); begun != 1 || done != 1 {
			t.Fatalf("Ops(join) = %d begun, %d done, want 1/1", begun, done)
		}
	})

	t.Run("pooled", func(t *testing.T) {
		m := trace.NewMetrics()
		pool := NewBudget(16, queueing)
		in := randomRecords(30_000, 21, 0)
		res, err := Sort(ctx, NewSliceIterator(in),
			WithPageRecords(64), WithBudget(pool), WithTracer(m))
		if err == nil {
			_, err = Drain(res.Iterator()) // the last merge step runs here
		}
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		checkCountersMatchStats(t, m, res.Stats)
		if begun, done := m.Ops("sort"); begun != 1 || done != 1 {
			t.Fatalf("Ops(sort) = %d begun, %d done, want 1/1", begun, done)
		}
		if res.Pool == nil || res.Pool.Grants == 0 || res.Pool.PagesGranted < res.Pool.Grants {
			t.Fatalf("Result.Pool = %+v, want the operator's grants", res.Pool)
		}
	})
}

// phaseOrder asserts the operator's phase events are well formed: at least
// one split phase first, every split phase before every merge phase, and a
// final idle. ops filters the event stream to one operator.
func phaseOrder(t *testing.T, evs []trace.Event) {
	t.Helper()
	var phases []string
	for _, e := range evs {
		if e.Kind == trace.KindPhase {
			phases = append(phases, e.Name)
		}
	}
	if len(phases) < 3 {
		t.Fatalf("phases = %v, want at least split/merge/idle", phases)
	}
	if phases[0] != "split" {
		t.Fatalf("first phase %q, want split", phases[0])
	}
	if phases[len(phases)-1] != "idle" {
		t.Fatalf("last phase %q, want idle", phases[len(phases)-1])
	}
	mergeSeen := false
	for _, p := range phases {
		switch p {
		case "merge":
			mergeSeen = true
		case "split":
			if mergeSeen {
				t.Fatalf("split phase after merge began: %v", phases)
			}
		}
	}
	if !mergeSeen {
		t.Fatalf("no merge phase: %v", phases)
	}
}

// checkOpStream runs the structural assertions on one operator's events:
// begin/end bracketing, phase order, paired suspends/resumes, and step
// bookkeeping consistent with the final stats.
func checkOpStream(t *testing.T, all []trace.Event, s Stats) {
	t.Helper()
	if len(all) == 0 {
		t.Fatal("no events traced")
	}
	if all[0].Kind != trace.KindOpBegin {
		t.Fatalf("first event %v, want op_begin", all[0].Kind)
	}
	op := all[0].Op
	var evs []trace.Event
	for _, e := range all {
		if e.Op == op {
			evs = append(evs, e)
		}
	}
	if last := evs[len(evs)-1]; last.Kind != trace.KindOpEnd {
		t.Fatalf("last op event %v, want op_end", last.Kind)
	}
	phaseOrder(t, evs)
	suspended := 0
	begins, ends, runs := 0, 0, 0
	for _, e := range evs {
		switch e.Kind {
		case trace.KindSuspend:
			suspended++
		case trace.KindResume:
			suspended--
			if suspended < 0 {
				t.Fatal("resume without a matching suspend")
			}
		case trace.KindStepBegin:
			begins++
		case trace.KindStepEnd:
			ends++
		case trace.KindRun:
			runs++
		}
	}
	if suspended != 0 {
		t.Fatalf("%d suspends left unresumed", suspended)
	}
	if runs != s.Runs {
		t.Fatalf("run events = %d, stats.Runs = %d", runs, s.Runs)
	}
	if ends != s.MergeSteps {
		t.Fatalf("step_end events = %d, stats.MergeSteps = %d", ends, s.MergeSteps)
	}
	if begins < ends {
		t.Fatalf("step_begin %d < step_end %d", begins, ends)
	}
}

// TestTraceOrderingUnderFluctuation is the -race acceptance test: under a
// fluctuating budget, the trace stream stays structurally sound for both a
// plain and a pooled operator, and the WithEvents callback honors its
// sequential-delivery contract.
func TestTraceOrderingUnderFluctuation(t *testing.T) {
	ctx := context.Background()

	t.Run("plain", func(t *testing.T) {
		c := &collectTracer{}
		var inCallback atomic.Int32
		in := randomRecords(120_000, 41, 0)
		budget := NewBudget(32)
		stop := churnBudget(budget, 3, 32)
		res, err := Sort(ctx, NewSliceIterator(in),
			WithPageRecords(64), WithBudget(budget), WithTracer(c),
			WithEvents(func(ev Event) {
				// The WithEvents contract: invocations are sequential. A
				// failed CAS means two callbacks overlapped.
				if !inCallback.CompareAndSwap(0, 1) {
					t.Error("WithEvents callback invoked concurrently")
				}
				inCallback.Store(0)
			}))
		if err == nil {
			_, err = Drain(res.Iterator()) // the last merge step runs here
		}
		stop()
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		checkOpStream(t, c.events(), res.Stats)
	})

	t.Run("pooled", func(t *testing.T) {
		c := &collectTracer{}
		pool := NewBudget(32, queueing)
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(5, 5))
			for {
				select {
				case <-done:
					pool.Resize(32)
					return
				default:
					pool.Resize(8 + rng.IntN(24))
					time.Sleep(150 * time.Microsecond)
				}
			}
		}()
		in := randomRecords(80_000, 43, 0)
		res, err := Sort(ctx, NewSliceIterator(in),
			WithPageRecords(64), WithBudget(pool), WithTracer(c))
		if err == nil {
			_, err = Drain(res.Iterator()) // the last merge step runs here
		}
		close(done)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		checkOpStream(t, c.events(), res.Stats)
		if res.Pool == nil || res.Pool.Grants == 0 {
			t.Fatalf("Result.Pool = %+v, want the operator's grants", res.Pool)
		}
	})
}

// TestObserverPanicsRecovered pins the panic guarantee: a panicking
// WithEvents callback or tracer never corrupts the sort — the operation
// completes correctly and the recovered panics are counted.
func TestObserverPanicsRecovered(t *testing.T) {
	in := randomRecords(30_000, 5, 0)
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithPageRecords(64), WithBudget(NewBudget(16)),
		WithEvents(func(Event) { panic("observer bug") }),
		WithTracer(tracerFunc(func(trace.Event) { panic("tracer bug") })))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, err := Drain(res.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out)
	assertPermutation(t, in, out)
	if res.Stats.EventPanics == 0 {
		t.Fatal("recovered panics not counted in Stats.EventPanics")
	}
}

// panicTracer counts every event it is handed, by kind, and then panics.
type panicTracer struct {
	mu sync.Mutex
	n  map[trace.Kind]int
}

func (p *panicTracer) Emit(e trace.Event) {
	p.mu.Lock()
	if p.n == nil {
		p.n = map[trace.Kind]int{}
	}
	p.n[e.Kind]++
	p.mu.Unlock()
	panic("tracer bug")
}

func (p *panicTracer) count(k trace.Kind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[k]
}

func (p *panicTracer) total() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.n {
		n += c
	}
	return n
}

// TestTracersThatPanicOnEveryEvent holds the tracer-delivery contract on
// every path an event takes to the operator's tracer: core events, store
// I/O and the op span. The tracer panics on every event, and every
// operation ends as it would untraced: a plain sort, a pooled sort and a
// held drain succeed with correct output, and a faultinject FileStore sort
// that retries a write and then gives up fails with ErrStoreFailed.
// Stats.EventPanics equals the events the tracer was handed before the
// stats were final, which is all of them but KindOpEnd.
//
// The plain sort's Budget is squeezed as each merge step starts, so a step
// splits. The scenarios deliver every Kind but KindCombineBegin,
// KindCombineEnd, KindCombineAbort, KindSuspend and KindResume, which need
// other memory schedules: those take the path KindSplit takes.
func TestTracersThatPanicOnEveryEvent(t *testing.T) {
	ctx := context.Background()
	in := randomRecords(20_000, 7, 8)
	seen := map[trace.Kind]bool{}
	note := func(tr *panicTracer) {
		for k := range trace.KindStoreWrite + 1 {
			if tr.count(k) > 0 {
				seen[k] = true
			}
		}
	}
	drained := func(t *testing.T, res *Result, op *panicTracer, want []Record) {
		t.Helper()
		out, err := Drain(res.Iterator())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
		assertSorted(t, out)
		assertPermutation(t, want, out)
		if got, want := res.Stats.EventPanics, op.total()-op.count(trace.KindOpEnd); got != want || want == 0 {
			t.Errorf("Stats.EventPanics = %d, the tracer was handed %d events before the stats were final", got, want)
		}
		note(op)
	}
	fileStore := func(t *testing.T, cfg *StoreConfig) *FileStore {
		s, err := cfg.File(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}

	t.Run("plain", func(t *testing.T) {
		op := &panicTracer{}
		b := NewBudget(16)
		squeeze := func(ev Event) {
			switch ev.Kind {
			case EvStepStart:
				b.Resize(3)
			case EvSplitStep:
				b.Resize(16)
			}
		}
		res, err := Sort(ctx, NewSliceIterator(in), WithPageRecords(64), WithBudget(b), WithTracer(op), WithEvents(squeeze))
		if err != nil {
			t.Fatal(err)
		}
		drained(t, res, op, in)
	})
	t.Run("pooled", func(t *testing.T) {
		op := &panicTracer{}
		res, err := Sort(ctx, NewSliceIterator(in), WithPageRecords(64), WithBudget(NewBudget(12, queueing)), WithTracer(op))
		if err != nil {
			t.Fatal(err)
		}
		drained(t, res, op, in)
	})
	t.Run("held-drain", func(t *testing.T) {
		store := fileStore(t, NewStoreConfig())
		var ids []RunID
		var all []Record
		for i := range 4 {
			recs := randomRecords(2_000, uint64(30+i), 8)
			slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
			id, _, err := WriteRun(store, NewSliceIterator(recs), 64)
			if err != nil {
				t.Fatal(err)
			}
			ids, all = append(ids, id), append(all, recs...)
		}
		op := &panicTracer{}
		res, err := Merge(ctx, store, ids, WithPageRecords(64), WithBudget(NewBudget(8)), WithTracer(op))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.MergeSteps != 0 {
			t.Fatalf("%d merge steps ran before the drain: want the whole merge held", res.Stats.MergeSteps)
		}
		drained(t, res, op, all)
	})
	t.Run("store-gives-up", func(t *testing.T) {
		op := &panicTracer{}
		inj := faultinject.New(
			faultinject.Rule{Op: faultinject.Write, Nth: 1, Fault: faultinject.Fault{Err: faultinject.Transient("write blip")}},
			faultinject.Rule{Op: faultinject.Write, Nth: 3, Fault: faultinject.Fault{Err: faultinject.Permanent("controller gone")}})
		cfg := NewStoreConfig().WithFaults(inj).WithRetry(RetryPolicy{MaxAttempts: 3})
		res, err := Sort(ctx, NewSliceIterator(in), WithPageRecords(64), WithBudget(NewBudget(8)),
			WithStore(fileStore(t, cfg)), WithTracer(op))
		if err == nil {
			_, err = Drain(res.Iterator())
			res.Close()
		}
		if !errors.Is(err, ErrStoreFailed) {
			t.Fatalf("sort over a store that gives up = %v, want ErrStoreFailed", err)
		}
		note(op)
	})

	unreached := map[trace.Kind]bool{
		trace.KindCombineBegin: true, trace.KindCombineEnd: true, trace.KindCombineAbort: true,
		trace.KindSuspend: true, trace.KindResume: true,
	}
	for k := range trace.KindStoreWrite + 1 {
		if !seen[k] && !unreached[k] {
			t.Errorf("no tracer was handed a %s event", k)
		}
	}
}

type stubToken struct{}

func (stubToken) Wait() error { return nil }

type stubPageToken struct{ pg Page }

func (s stubPageToken) Wait() (Page, error) { return s.pg, nil }

// TestTracedTokenGuardsNilTracer pins the untraced-path guard on the
// store-latency wrappers: the first Wait always feeds the stats counters,
// but the trace event (and the work of building it) must be gated on the
// tracer locally — not on the cross-file invariant that tracedStore is
// only installed when a tracer exists. Exactly one event per token with a
// tracer, none without.
func TestTracedTokenGuardsNilTracer(t *testing.T) {
	for _, withTracer := range []bool{false, true} {
		rec := &collectTracer{}
		ot := &opTrace{}
		if withTracer {
			ot.tr = rec
		}
		s := &tracedStore{ot: ot}
		tok := &tracedToken{Token: stubToken{}, s: s, start: time.Now(), bytes: 123}
		for i := 0; i < 2; i++ {
			if err := tok.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		ptok := &tracedPageToken{PageToken: stubPageToken{}, s: s, start: time.Now()}
		for i := 0; i < 2; i++ {
			if _, err := ptok.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if w, r := s.writes.Load(), s.reads.Load(); w != 1 || r != 1 {
			t.Fatalf("tracer=%v: stats counted writes=%d reads=%d, want 1 each", withTracer, w, r)
		}
		want := 0
		if withTracer {
			want = 2
		}
		if got := len(rec.events()); got != want {
			t.Fatalf("tracer=%v: %d events emitted, want %d", withTracer, got, want)
		}
	}
}

// TestTracedReadAddsOneAllocation: the operator's tracedStore wraps each
// read token once. A read, its Wait and its ReleaseRecords allocate at most
// one object more through the wrapper than on the bare store, on every
// backend — including those whose tokens offer Release, where the wrapper
// that passes Release on holds the traced token by value.
func TestTracedReadAddsOneAllocation(t *testing.T) {
	read := func(s RunStore, id RunID) float64 {
		return testing.AllocsPerRun(200, func() {
			tok := s.ReadAsync(id, 3)
			if pg, err := tok.Wait(); err != nil || pg[0].Key != 30 {
				t.Fatalf("read = %v, %v", pg, err)
			}
			tok.(interface{ ReleaseRecords() }).ReleaseRecords()
		})
	}
	check := func(t *testing.T, s RunStore) {
		id := writePages(t, s, eightPages()...)
		traced := &tracedStore{RunStore: s, ot: &opTrace{tr: tracerFunc(func(trace.Event) {})}}
		bare, withTracer := read(s, id), read(traced, id)
		if withTracer > bare+1 {
			t.Errorf("a traced read allocates %.0f objects, an untraced one %.0f: the tracer may add one", withTracer, bare)
		}
	}
	forPagedBackends(t, NewStoreConfig, func(t *testing.T, s tokenStore) {
		s.makeFast() // every read inline: a dispatched one allocates its goroutine
		check(t, s.RunStore)
	})
	t.Run("mem", func(t *testing.T) { check(t, NewMemStore()) })
}

// TestChromeTraceFromSort runs a real adaptive sort through the Chrome
// writer and checks the output is structurally valid trace_event JSON.
func TestChromeTraceFromSort(t *testing.T) {
	var buf bytes.Buffer
	ch := trace.NewChrome(&buf)
	in := randomRecords(120_000, 47, 0)
	budget := NewBudget(32)
	stop := churnBudget(budget, 3, 32)
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithPageRecords(64), WithBudget(budget), WithTracer(ch))
	stop()
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("empty trace")
	}
	phCount := map[string]int{}
	for i, r := range rows {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := r[field]; !ok {
				t.Fatalf("row %d missing %q: %v", i, field, r)
			}
		}
		phCount[r["ph"].(string)]++
	}
	if phCount["B"] == 0 || phCount["B"] != phCount["E"] {
		t.Fatalf("unbalanced duration events: B=%d E=%d", phCount["B"], phCount["E"])
	}
	if phCount["X"] == 0 {
		t.Fatal("no complete (X) events — store I/O missing from trace")
	}
	if phCount["b"] == 0 || phCount["b"] < phCount["e"] {
		t.Fatalf("async merge-step spans malformed: b=%d e=%d", phCount["b"], phCount["e"])
	}
	if phCount["i"] == 0 {
		t.Fatal("no instant (i) adaptation events under a fluctuating budget")
	}
}

// TestEventLogOnResult checks the WithEventLog flight recorder: the ring
// rides on the Result, keeps at most N events, ends with the op_end event,
// and serializes to JSON.
func TestEventLogOnResult(t *testing.T) {
	const n = 64
	in := randomRecords(60_000, 11, 0)
	res, err := Sort(context.Background(), NewSliceIterator(in),
		WithPageRecords(64), WithBudget(NewBudget(16)), WithEventLog(n))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if _, err := Drain(res.Iterator()); err != nil { // the last merge step runs here
		t.Fatal(err)
	}
	if res.Events == nil {
		t.Fatal("Result.Events nil despite WithEventLog")
	}
	evs := res.Events.Events()
	if len(evs) == 0 || len(evs) > n {
		t.Fatalf("ring holds %d events, want 1..%d", len(evs), n)
	}
	if res.Events.Total() < uint64(len(evs)) {
		t.Fatalf("Total %d < retained %d", res.Events.Total(), len(evs))
	}
	if last := evs[len(evs)-1]; last.Kind != trace.KindOpEnd {
		t.Fatalf("last ring event %v, want op_end", last.Kind)
	}
	var buf bytes.Buffer
	if err := res.Events.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Total  uint64           `json:"total"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("ring JSON invalid: %v\n%s", err, buf.Bytes())
	}
	if payload.Total != res.Events.Total() || len(payload.Events) != len(evs) {
		t.Fatalf("ring JSON total=%d events=%d, want %d/%d",
			payload.Total, len(payload.Events), res.Events.Total(), len(evs))
	}
}
