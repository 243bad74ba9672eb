package masort

import (
	"sync/atomic"
	"time"

	"github.com/memadapt/masort/internal/core"
	"github.com/memadapt/masort/internal/pagecodec"
	"github.com/memadapt/masort/trace"
)

// Tracer receives engine trace events; see the trace package for the event
// vocabulary and the stdlib-only implementations (Metrics, Chrome, Ring).
type Tracer = trace.Tracer

// opSeq numbers operators process-wide so trace events from concurrent
// operators (a pooled workload) can be told apart.
var opSeq atomic.Uint64

// opTrace is one operator's observability context: its process-unique trace
// id, the composed tracer (user tracer plus the optional WithEventLog ring),
// the legacy WithEvents callback, and the panic counter feeding
// Stats.EventPanics. A nil *opTrace is valid and inert — the untraced path
// costs one nil check per call site.
type opTrace struct {
	tr   trace.Tracer
	ring *trace.Ring
	user func(Event)

	id       uint64
	name     string
	start    time.Time // operator begin (includes pool admission)
	envStart time.Time // core engine start; core event times are offsets from it

	panics atomic.Int64
}

// emit delivers one event to the operator's tracer behind a recover guard:
// observability must never corrupt the operation it is watching. A panicking
// tracer loses its event and is counted into Stats.EventPanics.
func (t *opTrace) emit(ev trace.Event) {
	if t.tr == nil {
		return
	}
	defer func() {
		if recover() != nil {
			t.panics.Add(1)
		}
	}()
	t.tr.Emit(ev)
}

// newOpTrace assembles the operator's observability context, or nil when
// nothing observes it.
func newOpTrace(o *config, name string) *opTrace {
	if o.tracer == nil && o.onEvent == nil && o.eventLog <= 0 {
		return nil
	}
	ot := &opTrace{user: o.onEvent, name: name, start: time.Now()}
	ot.envStart = ot.start
	ot.tr = o.tracer
	if o.eventLog > 0 {
		ot.ring = trace.NewRing(o.eventLog)
		ot.tr = trace.Multi(o.tracer, ot.ring)
	}
	ot.id = opSeq.Add(1)
	return ot
}

// begin announces the operator. Its timestamp precedes pool admission, so
// the op span covers time spent queued (Result.Pool.AdmissionWait reports
// that wait separately).
func (t *opTrace) begin() {
	if t == nil {
		return
	}
	t.emit(trace.Event{Kind: trace.KindOpBegin, Time: t.start, Op: t.id, Name: t.name})
}

// end closes the operator span, carrying the error of a failed operator.
func (t *opTrace) end(err error) {
	if t == nil {
		return
	}
	ev := trace.Event{Kind: trace.KindOpEnd, Time: time.Now(), Op: t.id, Name: t.name, Dur: time.Since(t.start)}
	if err != nil {
		ev.Err = err.Error()
	}
	t.emit(ev)
}

// onEvent is installed as the core Env's event callback. The engine invokes
// it sequentially on the operator's goroutine (see WithEvents); each sink is
// recovered independently, so a panicking user callback still lets the
// tracer see the event and vice versa.
func (t *opTrace) onEvent(ev core.Event) {
	if t.user != nil {
		t.callUser(ev)
	}
	if t.tr != nil {
		t.emit(t.convert(ev))
	}
}

func (t *opTrace) callUser(ev core.Event) {
	defer func() {
		if recover() != nil {
			t.panics.Add(1)
		}
	}()
	t.user(ev)
}

// convert translates a core engine event into the trace vocabulary. Core
// timestamps are offsets on the Env clock, which starts at envStart.
func (t *opTrace) convert(ev core.Event) trace.Event {
	out := trace.Event{
		Time:    t.envStart.Add(ev.At),
		Op:      t.id,
		Step:    ev.Step,
		Target:  ev.Target,
		Granted: ev.Granted,
	}
	switch ev.Kind {
	case core.EvPhase:
		out.Kind, out.Name = trace.KindPhase, ev.Phase
	case core.EvRunDone:
		out.Kind, out.Pages = trace.KindRun, ev.Detail
	case core.EvStepStart:
		out.Kind, out.Pages = trace.KindStepBegin, ev.Detail
	case core.EvStepDone:
		out.Kind, out.Pages = trace.KindStepEnd, ev.Detail
	case core.EvSplitStep:
		out.Kind, out.Pages = trace.KindSplit, ev.Detail
	case core.EvCombineStart:
		out.Kind, out.Pages = trace.KindCombineBegin, ev.Detail
	case core.EvCombineDone:
		out.Kind, out.Pages = trace.KindCombineEnd, ev.Detail
	case core.EvCombineAbort:
		out.Kind = trace.KindCombineAbort
	case core.EvSuspend:
		out.Kind, out.Pages = trace.KindSuspend, ev.Detail
	case core.EvResume:
		out.Kind, out.Pages = trace.KindResume, ev.Detail
	}
	return out
}

// finishStats folds the measured store I/O and any recovered observer panics
// into the operator's final stats.
func (t *opTrace) finishStats(st *Stats, ts *tracedStore) {
	if t == nil {
		return
	}
	if ts != nil {
		ts.fill(st)
	}
	st.EventPanics += int(t.panics.Load())
}

// attach hands the operator's event-log ring (if any) to its Result.
func (t *opTrace) attach(res *Result) {
	if t != nil {
		res.Events = t.ring
	}
}

// tracedStore wraps the operator's run store, measuring every append batch
// and page read: count, encoded bytes, and issue-to-completion latency —
// the real engine's counterpart of the simulator's modeled I/O. The
// measurements feed both the tracer (KindStoreRead / KindStoreWrite events)
// and the Result's Stats aggregates, so for one operator against a fresh
// metrics registry the two agree by construction. It wraps any RunStore —
// MemStore, FileStore, or a custom one.
type tracedStore struct {
	RunStore
	ot *opTrace

	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	readNanos, writeNanos   atomic.Int64
}

func (s *tracedStore) fill(st *Stats) {
	st.StoreReads = int(s.reads.Load())
	st.StoreWrites = int(s.writes.Load())
	st.BytesRead = s.bytesRead.Load()
	st.BytesWritten = s.bytesWritten.Load()
	st.ReadLatency = time.Duration(s.readNanos.Load())
	st.WriteLatency = time.Duration(s.writeNanos.Load())
}

// tokenRetries returns the retries a store token reports, 0 for a token that
// reports none. The traced tokens forward it, so the engine counts a traced
// operator's Stats.StoreRetries as it counts an untraced one's.
func tokenRetries(tok any) int {
	if rt, ok := tok.(interface{ Retries() int }); ok {
		return rt.Retries()
	}
	return 0
}

func (s *tracedStore) Append(id RunID, pages []Page) (Token, error) {
	if len(pages) == 0 {
		return s.RunStore.Append(id, pages)
	}
	var bytes int64
	for _, pg := range pages {
		bytes += int64(pagecodec.EncodedSize(pg))
	}
	start := time.Now()
	tok, err := s.RunStore.Append(id, pages)
	if err != nil {
		return tok, err
	}
	return &tracedToken{Token: tok, s: s, start: start, bytes: bytes}, nil
}

func (s *tracedStore) ReadAsync(id RunID, page int) PageToken {
	t := &releasingTracedPageToken{tracedPageToken: tracedPageToken{
		PageToken: s.RunStore.ReadAsync(id, page), s: s, start: time.Now(),
	}}
	if rel, ok := t.PageToken.(core.PageReleaser); ok {
		t.PageReleaser = rel
		return t
	}
	return &t.tracedPageToken
}

// releasingTracedPageToken is the traced token of a store whose read tokens
// offer Release: tracing must not cost the store its frames back, nor make a
// store that offers none look as if it did. It holds the traced token by
// value, and ReadAsync makes one for every read, handing out only the traced
// token when the store's token offers no Release: one allocation either way.
type releasingTracedPageToken struct {
	tracedPageToken
	core.PageReleaser
}

// tracedToken observes an append batch; the measurement completes at the
// first Wait (when the batch is durable). The engine drives each run from a
// single goroutine, so the done flag needs no synchronization.
type tracedToken struct {
	Token
	s     *tracedStore
	start time.Time
	bytes int64
	done  bool
}

func (t *tracedToken) Wait() error {
	err := t.Token.Wait()
	if !t.done {
		t.done = true
		d := time.Since(t.start)
		t.s.writes.Add(1)
		t.s.bytesWritten.Add(t.bytes)
		t.s.writeNanos.Add(int64(d))
		if ot := t.s.ot; ot.tr != nil {
			ot.emit(trace.Event{
				Kind: trace.KindStoreWrite, Time: time.Now(), Op: ot.id,
				Bytes: t.bytes, Dur: d,
			})
		}
	}
	return err
}

func (t *tracedToken) Retries() int { return tokenRetries(t.Token) }

// tracedPageToken observes one page read, completing at the first Wait. It
// passes ReleaseRecords on to a store that offers it; offering it over one
// that does not changes nothing, since — unlike Release, which the engine
// counts and the store answers with a promise about Append — nobody acts on
// its presence.
type tracedPageToken struct {
	PageToken
	s     *tracedStore
	start time.Time
	done  bool
}

func (t *tracedPageToken) ReleaseRecords() {
	if rr, ok := t.PageToken.(core.RecordsReleaser); ok {
		rr.ReleaseRecords()
	}
}

func (t *tracedPageToken) Wait() (Page, error) {
	pg, err := t.PageToken.Wait()
	if !t.done {
		t.done = true
		d := time.Since(t.start)
		var bytes int64
		if err == nil {
			bytes = int64(pagecodec.EncodedSize(pg))
		}
		t.s.reads.Add(1)
		t.s.bytesRead.Add(bytes)
		t.s.readNanos.Add(int64(d))
		if ot := t.s.ot; ot.tr != nil {
			ot.emit(trace.Event{
				Kind: trace.KindStoreRead, Time: time.Now(), Op: ot.id,
				Bytes: bytes, Dur: d,
			})
		}
	}
	return pg, err
}

func (t *tracedPageToken) Retries() int { return tokenRetries(t.PageToken) }
