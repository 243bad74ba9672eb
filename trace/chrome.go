package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Chrome is a Tracer that writes the event stream in the Chrome trace_event
// JSON array format. Load the finished file in chrome://tracing or
// https://ui.perfetto.dev to see the operator's adaptation behavior on a
// timeline: phases and operators as nested duration events, merge steps as
// async spans (they interleave under dynamic splitting), store I/O as
// complete events, and splits / combines / suspensions as instants.
//
// Events are written incrementally, serialized by an internal mutex; Close
// terminates the JSON array and must be called before the file is loaded
// (tooling tolerates a truncated array, so even a crashed process leaves a
// usable trace).
type Chrome struct {
	mu    sync.Mutex
	w     io.Writer
	base  time.Time
	wrote bool
	err   error

	// openPhase tracks the current phase duration event per operator so a
	// phase transition can close the previous span.
	openPhase map[uint64]bool
}

// NewChrome creates a writer emitting to w. The caller owns w (wrap a file
// in a bufio.Writer and flush after Close for big traces).
func NewChrome(w io.Writer) *Chrome {
	return &Chrome{w: w, base: time.Now(), openPhase: map[uint64]bool{}}
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

func (c *Chrome) ts(t time.Time) float64 {
	if t.IsZero() {
		t = time.Now()
	}
	return float64(t.Sub(c.base)) / float64(time.Microsecond)
}

func (c *Chrome) write(ev chromeEvent) {
	if c.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	sep := ",\n"
	if !c.wrote {
		sep = "[\n"
		c.wrote = true
	}
	if _, err := io.WriteString(c.w, sep); err != nil {
		c.err = err
		return
	}
	if _, err := c.w.Write(b); err != nil {
		c.err = err
	}
}

// memArgs attaches the memory state to an event.
func memArgs(e Event) map[string]any {
	return map[string]any{"target": e.Target, "granted": e.Granted, "pages": e.Pages}
}

// Emit implements Tracer.
func (c *Chrome) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.ts(e.Time)
	switch e.Kind {
	case KindOpBegin:
		c.write(chromeEvent{Name: e.Name, Cat: "op", Ph: "B", Ts: ts, Pid: 1, Tid: e.Op})
	case KindOpEnd:
		args := map[string]any{}
		if e.Err != "" {
			args["error"] = e.Err
		}
		if c.openPhase[e.Op] {
			// A failed operator never reaches "idle": close its phase span so
			// the B/E nesting stays balanced.
			c.write(chromeEvent{Name: "phase", Cat: "phase", Ph: "E", Ts: ts, Pid: 1, Tid: e.Op})
			delete(c.openPhase, e.Op)
		}
		c.write(chromeEvent{Name: e.Name, Cat: "op", Ph: "E", Ts: ts, Pid: 1, Tid: e.Op, Args: args})
	case KindPhase:
		if c.openPhase[e.Op] {
			c.write(chromeEvent{Name: "phase", Cat: "phase", Ph: "E", Ts: ts, Pid: 1, Tid: e.Op})
			delete(c.openPhase, e.Op)
		}
		if e.Name != "idle" {
			c.write(chromeEvent{Name: e.Name, Cat: "phase", Ph: "B", Ts: ts, Pid: 1, Tid: e.Op})
			c.openPhase[e.Op] = true
		}
	case KindStepBegin:
		c.write(chromeEvent{Name: "merge-step", Cat: "step", Ph: "b", Ts: ts, Pid: 1, Tid: e.Op,
			ID: stepID(e), Args: map[string]any{"fanin": e.Pages}})
	case KindStepEnd:
		c.write(chromeEvent{Name: "merge-step", Cat: "step", Ph: "e", Ts: ts, Pid: 1, Tid: e.Op,
			ID: stepID(e), Args: map[string]any{"fanin": e.Pages}})
	case KindRun:
		c.write(chromeEvent{Name: "run", Cat: "adapt", Ph: "i", Ts: ts, Pid: 1, Tid: e.Op, S: "t",
			Args: memArgs(e)})
	case KindSplit, KindCombineBegin, KindCombineEnd, KindCombineAbort, KindSuspend, KindResume:
		c.write(chromeEvent{Name: e.Kind.String(), Cat: "adapt", Ph: "i", Ts: ts, Pid: 1, Tid: e.Op,
			S: "t", Args: memArgs(e)})
	case KindStoreRead, KindStoreWrite:
		// Complete events: ts is the span start.
		c.write(chromeEvent{Name: e.Kind.String(), Cat: "io", Ph: "X",
			Ts: c.ts(e.Time.Add(-e.Dur)), Dur: float64(e.Dur) / float64(time.Microsecond),
			Pid: 1, Tid: e.Op, Args: map[string]any{"bytes": e.Bytes, "pages": e.Pages}})
	}
}

// stepID gives async step spans a per-operator-unique id.
func stepID(e Event) string {
	return fmt.Sprintf("0x%x", e.Op<<20|uint64(e.Step))
}

// Close terminates the JSON array and reports any write error encountered.
// The Chrome tracer must not be used after Close.
func (c *Chrome) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	s := "[]\n"
	if c.wrote {
		s = "\n]\n"
	}
	_, err := io.WriteString(c.w, s)
	return err
}
