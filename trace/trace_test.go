package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestKindStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < kindCount; k++ {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("bad kind string %q for %d", s, k)
		}
		seen[s] = true
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

type recordTracer struct {
	mu  sync.Mutex
	evs []Event
}

func (r *recordTracer) Emit(e Event) {
	r.mu.Lock()
	r.evs = append(r.evs, e)
	r.mu.Unlock()
}

func TestMultiFanOutAndNils(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi must be nil")
	}
	a, b := &recordTracer{}, &recordTracer{}
	if got := Multi(nil, a); got != a {
		t.Fatal("single-tracer Multi must return it unchanged")
	}
	m := Multi(a, nil, b)
	m.Emit(Event{Kind: KindRun})
	m.Emit(Event{Kind: KindSplit})
	if len(a.evs) != 2 || len(b.evs) != 2 {
		t.Fatalf("fan-out lost events: %d %d", len(a.evs), len(b.evs))
	}
	if a.evs[1].Kind != KindSplit || b.evs[0].Kind != KindRun {
		t.Fatal("fan-out reordered events")
	}
}

type panicTracer struct{}

func (panicTracer) Emit(Event) { panic("sink bug") }

// TestMultiPanickingSinkIsolated pins the fan-out isolation contract: a
// panicking sink must not starve later sinks of the event, and the panic
// must still surface once to the caller (the engine's guarded emit helper
// counts it there).
func TestMultiPanickingSinkIsolated(t *testing.T) {
	rec := &recordTracer{}
	m := Multi(panicTracer{}, rec, panicTracer{})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		m.Emit(Event{Kind: KindRun})
	}()
	if recovered == nil {
		t.Fatal("sink panic swallowed: the caller's emit helper can no longer count it")
	}
	if len(rec.evs) != 1 || rec.evs[0].Kind != KindRun {
		t.Fatalf("sink after a panicking sink got %d events, want 1", len(rec.evs))
	}
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.Emit(Event{Kind: KindOpBegin, Name: "sort"})
	for i := 0; i < 3; i++ {
		m.Emit(Event{Kind: KindRun, Pages: 4})
	}
	m.Emit(Event{Kind: KindStepEnd, Pages: 3})
	m.Emit(Event{Kind: KindSplit})
	m.Emit(Event{Kind: KindSuspend})
	m.Emit(Event{Kind: KindResume})
	m.Emit(Event{Kind: KindStoreWrite, Bytes: 1000, Dur: 2 * time.Millisecond})
	m.Emit(Event{Kind: KindStoreRead, Bytes: 500, Dur: 30 * time.Second})
	m.Emit(Event{Kind: KindOpEnd, Name: "sort", Dur: time.Second})

	for name, want := range map[string]int64{
		"masort_runs_total":              3,
		"masort_merge_steps_total":       1,
		"masort_splits_total":            1,
		"masort_suspensions_total":       1,
		"masort_resumes_total":           1,
		"masort_store_write_bytes_total": 1000,
		"masort_store_read_bytes_total":  500,
		"masort_store_reads_total":       1,
		"masort_store_writes_total":      1,
		"masort_combines_total":          0,
	} {
		if got := m.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if begun, done := m.Ops("sort"); begun != 1 || done != 1 {
		t.Fatalf("ops sort = %d/%d", begun, done)
	}
	if m.HistogramCount("masort_store_read_seconds") != 1 {
		t.Fatal("read histogram missed observation")
	}
}

func TestMetricsConcurrentEmit(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Emit(Event{Kind: KindRun})
				m.Emit(Event{Kind: KindStoreWrite, Bytes: 10, Dur: time.Microsecond})
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("masort_runs_total"); got != 8000 {
		t.Fatalf("runs = %d, want 8000", got)
	}
	if got := m.Counter("masort_store_write_bytes_total"); got != 80000 {
		t.Fatalf("bytes = %d, want 80000", got)
	}
	if got := m.HistogramCount("masort_store_write_seconds"); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

// chromeRows parses a finished Chrome trace into its event rows.
func chromeRows(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	return rows
}

func TestChromeWriterStructure(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	now := time.Now()
	c.Emit(Event{Kind: KindOpBegin, Name: "sort", Op: 1, Time: now})
	c.Emit(Event{Kind: KindPhase, Name: "split", Op: 1, Time: now})
	c.Emit(Event{Kind: KindRun, Op: 1, Pages: 8, Time: now})
	c.Emit(Event{Kind: KindPhase, Name: "merge", Op: 1, Time: now})
	c.Emit(Event{Kind: KindStepBegin, Op: 1, Step: 1, Pages: 4, Time: now})
	c.Emit(Event{Kind: KindSuspend, Op: 1, Target: 3, Granted: 0, Time: now})
	c.Emit(Event{Kind: KindResume, Op: 1, Target: 24, Granted: 5, Time: now})
	c.Emit(Event{Kind: KindStoreRead, Op: 1, Bytes: 4096, Dur: time.Millisecond, Time: now})
	c.Emit(Event{Kind: KindStepEnd, Op: 1, Step: 1, Pages: 4, Time: now})
	c.Emit(Event{Kind: KindPhase, Name: "idle", Op: 1, Time: now})
	c.Emit(Event{Kind: KindOpEnd, Name: "sort", Op: 1, Dur: time.Second, Time: now})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	rows := chromeRows(t, buf.Bytes())
	if len(rows) == 0 {
		t.Fatal("empty trace")
	}
	depth := 0
	async := map[string]int{}
	for _, r := range rows {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := r[key]; !ok {
				t.Fatalf("row missing %q: %v", key, r)
			}
		}
		switch r["ph"] {
		case "B":
			depth++
		case "E":
			depth--
			if depth < 0 {
				t.Fatal("E without matching B")
			}
		case "b":
			async[r["id"].(string)]++
		case "e":
			async[r["id"].(string)]--
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced B/E spans: depth %d", depth)
	}
	for id, n := range async {
		if n != 0 {
			t.Fatalf("unbalanced async span %s: %d", id, n)
		}
	}
}

func TestChromeWriterFailedOpClosesPhase(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	c.Emit(Event{Kind: KindOpBegin, Name: "sort", Op: 2})
	c.Emit(Event{Kind: KindPhase, Name: "split", Op: 2})
	c.Emit(Event{Kind: KindOpEnd, Name: "sort", Op: 2, Err: "canceled"})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	b, e := 0, 0
	for _, r := range chromeRows(t, buf.Bytes()) {
		switch r["ph"] {
		case "B":
			b++
		case "E":
			e++
		}
	}
	if b != e {
		t.Fatalf("B=%d E=%d: failed op must close its open phase", b, e)
	}
}

func TestChromeWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if rows := chromeRows(t, buf.Bytes()); len(rows) != 0 {
		t.Fatalf("empty trace has %d rows", len(rows))
	}
}

func TestRingWrapAndOrder(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindRun, Pages: i})
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d", len(evs))
	}
	for i, e := range evs {
		if e.Pages != 6+i {
			t.Fatalf("event %d = pages %d, want %d (oldest first)", i, e.Pages, 6+i)
		}
	}
}

func TestRingWriteJSON(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Kind: KindSuspend, Op: 3, Target: 3, Granted: 9, Time: time.Now()})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Kind    string `json:"kind"`
			Op      uint64 `json:"op"`
			Granted int    `json:"granted"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if out.Total != 1 || len(out.Events) != 1 {
		t.Fatalf("total=%d events=%d", out.Total, len(out.Events))
	}
	if out.Events[0].Kind != "suspend" || out.Events[0].Granted != 9 {
		t.Fatalf("event = %+v", out.Events[0])
	}
}
