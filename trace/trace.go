// Package trace is masort's pluggable observability layer: a single Tracer
// interface, attached to an operator, fed with that operator's events — its
// lifecycle, the run-generation and merge-step event stream of the core sort
// (the quantities the paper's tables are built from), and its run store
// I/O — with three stdlib-only implementations:
//
//   - Metrics: a lock-free counter registry.
//   - Chrome: a Chrome trace_event JSON writer; load the file in
//     chrome://tracing (or https://ui.perfetto.dev) to see suspensions,
//     splits and combines on a timeline.
//   - Ring: a fixed-size last-N-events recorder for cheap always-on capture.
//
// Tracers compose with Multi, and every call site in the engine is guarded:
// a nil tracer costs nothing, and a panicking tracer is recovered, recorded
// and ignored — observability must never corrupt a merge step.
//
// All Emit implementations in this package are safe for concurrent use. The
// engine hands an operator's tracer that operator's events on one goroutine
// at a time; Emit is called concurrently only when operators share a tracer.
package trace

import "time"

// Kind classifies trace events.
type Kind uint8

const (
	// KindOpBegin / KindOpEnd bracket one operator (Sort, Join, GroupBy,
	// Merge). Name is the operator kind; OpEnd carries Dur (wall time) and
	// Err when the operator failed.
	KindOpBegin Kind = iota
	KindOpEnd
	// KindPhase is an operator phase transition; Name is "split", "merge"
	// or "idle".
	KindPhase
	// KindRun: the split phase completed one sorted run; Pages is its
	// length. The count of these events is the paper's "runs" column.
	KindRun
	// KindStepBegin / KindStepEnd bracket one merge step; Step identifies
	// it within the operator and Pages is its fan-in. Under dynamic
	// splitting steps interleave (a sub-step runs while its parent is
	// open), so step spans are async spans, not a stack.
	KindStepBegin
	KindStepEnd
	// Adaptation actions (paper §3.2): a step split off, a combine started /
	// completed / aborted, the merge suspended / resumed. Target and
	// Granted carry the memory state at the instant of the event.
	KindSplit
	KindCombineBegin
	KindCombineEnd
	KindCombineAbort
	KindSuspend
	KindResume
	// Store I/O: one page read / append batch completed (Dur = latency from
	// issue to completion, Bytes = encoded size).
	KindStoreRead
	KindStoreWrite

	kindCount // one past the last Kind: new kinds go above this line
)

// String returns the kind's stable snake-case name (used as the event label
// in exports).
func (k Kind) String() string {
	switch k {
	case KindOpBegin:
		return "op_begin"
	case KindOpEnd:
		return "op_end"
	case KindPhase:
		return "phase"
	case KindRun:
		return "run"
	case KindStepBegin:
		return "step_begin"
	case KindStepEnd:
		return "step_end"
	case KindSplit:
		return "split"
	case KindCombineBegin:
		return "combine_begin"
	case KindCombineEnd:
		return "combine_end"
	case KindCombineAbort:
		return "combine_abort"
	case KindSuspend:
		return "suspend"
	case KindResume:
		return "resume"
	case KindStoreRead:
		return "store_read"
	case KindStoreWrite:
		return "store_write"
	}
	return "unknown"
}

// Event is one observation. It is a plain value — tracers may retain it —
// and only the fields relevant to the Kind are set (see the Kind constants
// for which).
type Event struct {
	Kind Kind
	Time time.Time

	// Op identifies the operator the event belongs to (process-unique,
	// assigned at operator start).
	Op uint64

	// Name is the operator kind for op events and the phase name for
	// KindPhase.
	Name string

	// Step numbers a merge step within its operator.
	Step int

	// Dur is the duration of the completed span (op, I/O).
	Dur time.Duration

	// Bytes is the encoded I/O size for store events.
	Bytes int64

	// Pages is the page count the event is about: run length, step fan-in,
	// or the pages an adaptation action moved.
	Pages int

	// Target and Granted are the operator's memory state (pages entitled /
	// held) when the event fired, for adaptation and step events.
	Target  int
	Granted int

	// Err is the failure message for a KindOpEnd of a failed operator.
	Err string
}

// Tracer receives engine events. Implementations must be safe for
// concurrent use when operators share them, and should be fast: Emit runs on
// the goroutine running the operator, one of its events at a time. A slow
// tracer slows the sort — never the other way around: panics are recovered
// by the caller.
type Tracer interface {
	Emit(Event)
}

// multi fans one event out to several tracers in order. Each sink is
// delivered to independently: a panicking sink cannot starve the sinks
// after it of the event. The first panic is re-raised once after the
// fan-out so the engine's guarded emit helper still observes (and counts)
// it.
type multi []Tracer

func (m multi) Emit(e Event) {
	var panicked any
	for _, t := range m {
		if v := emitOne(t, e); v != nil && panicked == nil {
			panicked = v
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// emitOne delivers one event to one sink, converting a sink panic into a
// return value so the caller can finish the fan-out first.
func emitOne(t Tracer, e Event) (recovered any) {
	if t == nil {
		return nil
	}
	defer func() { recovered = recover() }()
	t.Emit(e)
	return nil
}

// Multi composes tracers into one that forwards every event to each of
// them in argument order. Nil entries are dropped; Multi() and
// Multi(nil, ...) with nothing left return nil, which the engine treats as
// "tracing off".
func Multi(ts ...Tracer) Tracer {
	out := make(multi, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
