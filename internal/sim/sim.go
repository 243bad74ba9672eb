// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It plays the role that the DeNet simulation language
// played in the VLDB'93 "Memory-Adaptive External Sorting" paper: system
// components (CPU, disks, buffer manager, transaction source, the sorts
// themselves) are modelled as processes that advance a shared virtual clock.
//
// Processes are goroutines, but exactly one goroutine (either the scheduler
// or a single process) runs at any instant; control is handed over through
// unbuffered channels. This gives sequential, reproducible semantics — the
// same seed always yields the same trace — while letting process code be
// written in ordinary blocking style.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is simulated time measured from the start of the simulation.
type Time = time.Duration

// Sim is a single simulation instance. It is not safe for concurrent use;
// all interaction must happen from process functions or event callbacks.
type Sim struct {
	now     Time
	fel     eventHeap
	seq     int64 // tie-breaker for events at the same instant
	yield   chan struct{}
	procs   map[*Proc]struct{}
	stopped bool
	err     error

	// TotalEvents counts dispatched events, for tests and diagnostics.
	TotalEvents int64
}

// New creates an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

type eventKind int

const (
	evResume eventKind = iota
	evCall
)

type event struct {
	t    Time
	seq  int64
	kind eventKind
	proc *Proc
	fn   func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)         { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any           { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (s *Sim) push(e event)             { e.seq = s.seq; s.seq++; heap.Push(&s.fel, e) }
func (s *Sim) schedule(t Time, p *Proc) { s.push(event{t: t, kind: evResume, proc: p}) }

// After schedules fn to run after delay d. fn runs on the scheduler and must
// not block; use it only for bookkeeping such as waking parked processes.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.push(event{t: s.now + d, kind: evCall, fn: fn})
}

// Proc is a simulated process. Its methods may only be called from the
// process's own goroutine (inside the function passed to Spawn).
type Proc struct {
	sim    *Sim
	resume chan struct{}
	parked bool
	killed bool
	done   bool
}

// Sim returns the simulation the process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.sim.now }

type killSentinel struct{}

// Spawn starts a new process at the current simulated time. The process
// function runs when the scheduler dispatches it.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, resume: make(chan struct{})}
	s.procs[p] = struct{}{}
	// A lock-step coroutine, deterministic despite the goroutine: exactly one
	// process goroutine runs at a time, dispatched by the scheduler's
	// deterministic event order.
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					if s.err == nil {
						s.err = fmt.Errorf("sim: process %q panicked: %v", name, r)
					}
					s.stopped = true
				}
			}
			p.done = true
			delete(s.procs, p)
			s.yield <- struct{}{}
		}()
		<-p.resume // wait for first dispatch
		if p.killed {
			panic(killSentinel{})
		}
		fn(p)
	}()
	s.schedule(s.now, p)
	return p
}

// dispatch hands control to p and waits until it parks, sleeps, or exits.
func (s *Sim) dispatch(p *Proc) {
	p.resume <- struct{}{}
	<-s.yield
}

// yieldToScheduler transfers control back to the scheduler; the process
// resumes when dispatched again. Panics with the kill sentinel if the
// simulation is shutting down.
func (p *Proc) yieldToScheduler() {
	p.sim.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killSentinel{})
	}
}

// Sleep advances the process by d of simulated time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now+d, p)
	p.yieldToScheduler()
}

// park blocks the process until some other component unparks it. The caller
// must have registered itself somewhere so that an Unpark will arrive;
// otherwise the process sleeps until the simulation ends.
func (p *Proc) park() {
	p.parked = true
	p.yieldToScheduler()
}

// Unpark schedules p to resume at the current instant. Safe to call from any
// process or event callback. Unparking a non-parked process is a no-op.
func (s *Sim) Unpark(p *Proc) {
	if p == nil || !p.parked || p.done {
		return
	}
	p.parked = false
	s.schedule(s.now, p)
}

// Run executes events until the event list is empty, Stop is called, or a
// process panics. Any processes still alive afterwards (for example daemon
// generators parked forever) are killed so no goroutines leak.
func (s *Sim) Run() error {
	for !s.stopped && len(s.fel) > 0 {
		e := heap.Pop(&s.fel).(event)
		if e.t < s.now {
			e.t = s.now
		}
		s.now = e.t
		s.TotalEvents++
		switch e.kind {
		case evResume:
			if e.proc.done || e.proc.parked {
				// Stale event: the process was resumed through another path
				// or has exited. parked procs only resume via Unpark.
				continue
			}
			s.dispatch(e.proc)
		case evCall:
			e.fn()
		}
	}
	s.shutdown()
	return s.err
}

// Stop requests that Run return after the current event. Call from a process
// or callback when the simulation's goal (e.g. K completed sorts) is reached.
func (s *Sim) Stop() { s.stopped = true }

// shutdown kills every remaining process so its goroutine exits.
func (s *Sim) shutdown() {
	for len(s.procs) > 0 {
		// Kill-all teardown, deterministic despite the map order: every
		// remaining process is killed regardless of order, and killed
		// processes produce no further events.
		for p := range s.procs {
			p.killed = true
			p.parked = false
			s.dispatch(p)
			break // map mutated; restart iteration
		}
	}
}

// Signal is a broadcast condition variable for processes.
type Signal struct {
	s       *Sim
	waiters []*Proc
}

// NewSignal creates a Signal bound to s.
func NewSignal(s *Sim) *Signal { return &Signal{s: s} }

// Wait parks p until the next Broadcast.
func (g *Signal) Wait(p *Proc) {
	g.waiters = append(g.waiters, p)
	p.park()
}

// Broadcast wakes every currently waiting process at the current instant.
func (g *Signal) Broadcast() {
	ws := g.waiters
	g.waiters = nil
	for _, w := range ws {
		g.s.Unpark(w)
	}
}

// Flag is a one-shot completion latch (e.g. an asynchronous I/O token).
type Flag struct {
	s       *Sim
	set     bool
	waiters []*Proc
}

// NewFlag creates an unset Flag.
func NewFlag(s *Sim) *Flag { return &Flag{s: s} }

// Set marks the flag done and wakes all waiters. Idempotent.
func (f *Flag) Set() {
	if f.set {
		return
	}
	f.set = true
	ws := f.waiters
	f.waiters = nil
	for _, w := range ws {
		f.s.Unpark(w)
	}
}

// IsSet reports whether Set has been called.
func (f *Flag) IsSet() bool { return f.set }

// Wait parks p until the flag is set; returns immediately if already set.
func (f *Flag) Wait(p *Proc) {
	if f.set {
		return
	}
	f.waiters = append(f.waiters, p)
	p.park()
}

// Resource is a single server with a FIFO queue — used for the CPU.
type Resource struct {
	s    *Sim
	busy bool
	q    []*Proc

	// BusyTime accumulates total holding time, for utilization metrics.
	BusyTime Time
}

// NewResource creates an idle resource.
func NewResource(s *Sim) *Resource { return &Resource{s: s} }

// Use acquires the resource FCFS, holds it for d, then releases it.
func (r *Resource) Use(p *Proc, d Time) {
	if r.busy {
		r.q = append(r.q, p)
		p.park()
	}
	r.busy = true
	r.BusyTime += d
	p.Sleep(d)
	if len(r.q) > 0 {
		next := r.q[0]
		r.q = r.q[1:]
		r.s.Unpark(next)
	} else {
		r.busy = false
	}
}
