package trace

import (
	"encoding/json"
	"sync"
	"time"
)

// Ring is a Tracer that keeps the last N events in a fixed ring buffer —
// cheap enough to leave on in production (one mutex'd copy per event, no
// allocation after construction) so the moments before an incident are
// always on hand. Attach it per operator via masort's WithEventLog, or
// share one among operators through WithTracer.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total uint64
}

// NewRing creates a recorder keeping the last n events (n < 1 is raised
// to 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Emit implements Tracer.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Total returns how many events have been emitted over the ring's lifetime
// (not just the retained window).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// ringEvent is the wire form of one recorded event: stable kind names and
// explicit units instead of Go-typed fields.
type ringEvent struct {
	Kind    string  `json:"kind"`
	Time    string  `json:"time"`
	Op      uint64  `json:"op,omitempty"`
	Name    string  `json:"name,omitempty"`
	Step    int     `json:"step,omitempty"`
	DurUs   float64 `json:"dur_us,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	Pages   int     `json:"pages,omitempty"`
	Target  int     `json:"target,omitempty"`
	Granted int     `json:"granted,omitempty"`
	Err     string  `json:"error,omitempty"`
}

// WriteJSON renders the retained events as a JSON document:
// {"total": N, "events": [...]} with events oldest first.
func (r *Ring) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	evs := r.Events()
	out := struct {
		Total  uint64      `json:"total"`
		Events []ringEvent `json:"events"`
	}{Total: r.Total(), Events: make([]ringEvent, 0, len(evs))}
	for _, e := range evs {
		out.Events = append(out.Events, ringEvent{
			Kind:    e.Kind.String(),
			Time:    e.Time.Format(time.RFC3339Nano),
			Op:      e.Op,
			Name:    e.Name,
			Step:    e.Step,
			DurUs:   float64(e.Dur) / float64(time.Microsecond),
			Bytes:   e.Bytes,
			Pages:   e.Pages,
			Target:  e.Target,
			Granted: e.Granted,
			Err:     e.Err,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
