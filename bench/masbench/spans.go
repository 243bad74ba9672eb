package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/memadapt/masort"
)

// spanName enumerates the spans of the traced rep:
//
//	rep › {setup, sort › {sort.split, sort.merge} › {store.*, budget.resize},
//	       drain › store.read_*, verify}
//
// For merge_file the operator span is still called "sort"; it then has a
// sort.merge child only.
type spanName uint8

const (
	spanRep spanName = iota
	spanSetup
	spanSort
	spanSortSplit
	spanSortMerge
	spanDrain
	spanVerify
	spanStoreAppend
	spanStoreWriteWait
	spanStoreReadIssue
	spanStoreReadWait
	spanBudgetResize
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"rep", "setup", "sort", "sort.split", "sort.merge", "drain", "verify",
	"store.append", "store.write_wait", "store.read_issue", "store.read_wait",
	"budget.resize",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed interval; times are nanoseconds since the recorder's
// epoch and parent is an index into the recorder's spans (-1 for the root).
type span struct {
	name       spanName
	parent     int32
	goroutine  int64
	start, end int64
}

// maxSpans bounds the recorder. One traced rep of the largest workload
// records about 60k spans; the rest is head-room.
const maxSpans = 1 << 18

// recorder keeps the traced rep's spans in memory. Slots are claimed with
// one atomic add and written by the claiming goroutine alone, so recording
// is safe from the crew's workers without a lock; the harness reads the
// spans only after the operator has returned.
type recorder struct {
	epoch   time.Time
	rep     int
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// cur is the span store calls are children of: the phase the operator
	// (or the drain) is in.
	cur atomic.Int32
	// home is the harness goroutine. With one worker the whole rep runs on
	// it. A crew's store calls come from its workers too, and finding out
	// which costs more than the call being timed (it more than doubled the
	// traced response), so those spans carry goroutine 0: "some goroutine
	// of the crew".
	home int64
	crew bool
}

func newRecorder(rep, workers int) *recorder {
	r := &recorder{epoch: time.Now(), rep: rep, spans: make([]span, maxSpans), home: goroutineID(), crew: workers > 1}
	r.cur.Store(-1)
	return r
}

// goroutineID parses the current goroutine's id out of its stack header
// ("goroutine 17 [running]:"); the runtime offers nothing cheaper.
func goroutineID() int64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		if id, err := strconv.ParseInt(string(b[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}

// begin opens a span and returns its index (-1 when the recorder is full).
func (r *recorder) begin(name spanName, parent int32) int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	g := r.home
	if r.crew && name >= spanStoreAppend {
		g = 0
	}
	r.spans[i] = span{name: name, parent: parent, goroutine: g, start: int64(time.Since(r.epoch))}
	return int32(i)
}

// end closes span i. A nil recorder (untraced rep) does nothing.
func (r *recorder) end(i int32) {
	if r != nil && i >= 0 {
		r.spans[i].end = int64(time.Since(r.epoch))
	}
}

// enter closes span prev and opens the next stage of the rep under root,
// making it the span store calls hang under. A nil recorder does nothing.
func (r *recorder) enter(prev int32, name spanName, root int32) int32 {
	if r == nil {
		return -1
	}
	r.end(prev)
	i := r.begin(name, root)
	r.cur.Store(i)
	return i
}

// add records a finished span.
func (r *recorder) add(name spanName, parent int32, start, end time.Time) {
	if i := r.begin(name, parent); i >= 0 {
		r.spans[i].start = int64(start.Sub(r.epoch))
		r.spans[i].end = int64(end.Sub(r.epoch))
	}
}

// phase is the span store calls should hang under right now.
func (r *recorder) phase() int32 { return r.cur.Load() }

// onEvent turns the operator's phase events into the sort.split and
// sort.merge spans under op. The engine delivers events sequentially from
// the operator's own goroutine, so the open-phase bookkeeping needs no
// lock; cur is atomic because crew workers read it.
func (r *recorder) onEvent(op int32) func(masort.Event) {
	open := int32(-1)
	return func(ev masort.Event) {
		if ev.Kind != masort.EvPhase {
			return
		}
		r.end(open)
		open = -1
		switch ev.Phase {
		case "split":
			open = r.begin(spanSortSplit, op)
		case "merge":
			open = r.begin(spanSortMerge, op)
		}
		if open >= 0 {
			r.cur.Store(open)
		} else {
			r.cur.Store(op)
		}
	}
}

// recorded returns the spans written so far.
func (r *recorder) recorded() []span {
	return r.spans[:min(r.n.Load(), int64(len(r.spans)))]
}

// total sums the durations of the spans called name whose parent chain
// reaches under.
func (r *recorder) total(name spanName, under int32) (sum time.Duration, count int) {
	for _, s := range r.recorded() {
		if s.name == name && r.within(s.parent, under) {
			sum += time.Duration(s.end - s.start)
			count++
		}
	}
	return sum, count
}

func (r *recorder) within(i, under int32) bool {
	for ; i >= 0; i = r.spans[i].parent {
		if i == under {
			return true
		}
	}
	return false
}

// find returns the index of the first span called name, or -1.
func (r *recorder) find(name spanName) int32 {
	for i, s := range r.recorded() {
		if s.name == name {
			return int32(i)
		}
	}
	return -1
}

// self is span i's duration minus the part of it its direct children
// cover. Children may overlap each other (crew workers, a read in flight
// during an append), so the covered part is the union of their intervals.
func (r *recorder) self(i int32) time.Duration {
	if i < 0 {
		return 0
	}
	p := r.spans[i]
	type iv struct{ a, b int64 }
	var kids []iv
	for _, s := range r.recorded() {
		if s.parent == i {
			kids = append(kids, iv{max(s.start, p.start), min(s.end, p.end)})
		}
	}
	slices.SortFunc(kids, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var covered, edge int64 = 0, p.start
	for _, k := range kids {
		if k.b <= edge {
			continue
		}
		covered += k.b - max(k.a, edge)
		edge = k.b
	}
	return time.Duration(p.end - p.start - covered)
}

// spanJSON is the trace file's record shape.
type spanJSON struct {
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int32  `json:"parent"`
	Rep       int    `json:"rep"`
	Goroutine int64  `json:"goroutine"`
}

// writeTrace writes the spans as one JSON document; a span's parent is the
// index of another span in the same array.
func (r *recorder) writeTrace(path, workload string) error {
	spans := r.recorded()
	out := struct {
		Workload string     `json:"workload"`
		Dropped  int64      `json:"dropped"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Dropped: r.dropped.Load(), Spans: make([]spanJSON, len(spans))}
	for i, s := range spans {
		out.Spans[i] = spanJSON{s.name.String(), s.start, s.end, s.parent, r.rep, s.goroutine}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
