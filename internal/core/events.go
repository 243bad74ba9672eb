package core

import "time"

// EventKind classifies adaptation events emitted during a sort or join.
type EventKind int

const (
	// EvSplitStep: dynamic splitting carved a preliminary sub-step out of
	// the active merge step.
	EvSplitStep EventKind = iota
	// EvCombineStart: memory grew; the active step's parent began draining
	// the sub-step's output (paper Figure 3a).
	EvCombineStart
	// EvCombineDone: the drained run emptied and the sub-step's inputs were
	// absorbed into the parent (Figure 3b).
	EvCombineDone
	// EvCombineAbort: memory shrank mid-drain; fell back to the preliminary
	// step.
	EvCombineAbort
	// EvSuspend: the merge released everything and is waiting for memory —
	// the suspension strategy, or any strategy on a worker its crew parked.
	EvSuspend
	// EvResume: memory returned; input buffers refetched in one batch.
	EvResume
	// EvStepDone: a merge step completed.
	EvStepDone
	// EvPhase: phase transition ("split", "merge", "idle").
	EvPhase
	// EvRunDone: the split phase completed one sorted run.
	EvRunDone
	// EvStepStart: a merge step began (its fan-in may still change under
	// dynamic splitting; EvStepDone reports the final one).
	EvStepStart
)

// String returns the event kind's name.
func (k EventKind) String() string {
	switch k {
	case EvSplitStep:
		return "split-step"
	case EvCombineStart:
		return "combine-start"
	case EvCombineDone:
		return "combine-done"
	case EvCombineAbort:
		return "combine-abort"
	case EvSuspend:
		return "suspend"
	case EvResume:
		return "resume"
	case EvStepDone:
		return "step-done"
	case EvPhase:
		return "phase"
	case EvRunDone:
		return "run-done"
	case EvStepStart:
		return "step-start"
	}
	return "unknown"
}

// Event is one adaptation event.
type Event struct {
	Kind EventKind
	At   time.Duration // Env clock
	// Target and Granted are the memory state when the event fired.
	Target  int
	Granted int
	// Detail depends on the kind: fan-in of the new step for EvSplitStep,
	// combined fan-in for EvCombineDone, the step's fan-in for
	// EvStepStart/EvStepDone, the target in pages the operator waits for
	// for EvSuspend/EvResume (the step's whole requirement under the
	// suspension strategy, 1 for a worker its crew parked), the run's
	// length in pages for EvRunDone, and 0 otherwise.
	Detail int
	// Step numbers the merge step the event belongs to, 1-based within the
	// operation, for EvStepStart/EvStepDone; 0 otherwise. Steps of one
	// operation interleave under dynamic splitting, so matching
	// start/done pairs need the id.
	Step int
	// Worker identifies the crew worker that emitted the event, 1-based;
	// 0 for events from the operator's own goroutine (all events of an
	// operation on one worker).
	Worker int
	// Phase carries the phase name for EvPhase events.
	Phase string
}

// emit sends an event through the Env's OnEvent hook, if installed.
func (e *Env) emit(kind EventKind, detail int, phase string) {
	e.emitStep(kind, detail, 0, phase)
}

// emitStep is emit with a merge-step id attached.
func (e *Env) emitStep(kind EventKind, detail, step int, phase string) {
	if e.OnEvent == nil {
		return
	}
	var target, granted int
	if e.Mem != nil {
		target = e.Mem.Target()
		granted = e.Mem.Granted()
	}
	e.deliver(Event{
		Kind:    kind,
		At:      e.now(),
		Target:  target,
		Granted: granted,
		Detail:  detail,
		Step:    step,
		Worker:  e.Worker,
		Phase:   phase,
	})
}

// deliver invokes the OnEvent callback behind a recover guard: an observer
// that panics must not corrupt the operation it is watching. Recovered
// panics are counted (EventPanics reports them) and the event is dropped.
func (e *Env) deliver(ev Event) {
	defer func() {
		if recover() != nil {
			e.eventPanics++
		}
	}()
	e.OnEvent(ev)
}
