// Package faultinject is the deterministic fault-injection harness for the
// storage path: an Injector decides, per file operation, whether to fail it,
// delay it, tear it short, or corrupt the bytes it returns — from either a
// scripted schedule ("fail the 3rd read, transiently") or a seeded random
// profile (the soak tests). The same schedule always produces the same
// decisions, so every failure path of the engine becomes a reproducible
// table-driven test instead of a flaky disk anecdote.
//
// The Injector plugs into any disk-backed store through the FaultHooks seam
// (masort.StoreConfig.WithFaults): it implements BeforeWrite and AfterRead by
// structural interface satisfaction, so this package never imports the
// library and the library never imports this package.
//
// Error classification is carried on the injected errors themselves:
// transient errors implement Temporary() bool (net.Error style), which is
// what the store's retry policy keys on. Inject syscall errors (ENOSPC,
// EROFS) directly via Rule.Fault.Err to exercise the fail-fast class.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// Op classifies the file operation an injection decision applies to.
type Op uint8

const (
	// Read is a positional page read (FileStore's ReadAt path).
	Read Op = iota
	// Write is a positional batch write (FileStore's Append, on its caller).
	Write
)

// String returns the op's stable name.
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Fault is one injection decision. The zero value injects nothing.
type Fault struct {
	// Err, when non-nil, fails the operation with this error. Use
	// Transient/Permanent constructors (or a raw syscall errno) so the
	// store's retry policy classifies it as intended.
	Err error

	// Delay is slept before the operation proceeds (or fails) — injected
	// device latency. Applied even when Err is nil.
	Delay time.Duration

	// Short, for writes failing with Err, is how many leading bytes are
	// actually written before the failure — a torn write. The zero value
	// tears off everything (no bytes land).
	Short int

	// FlipBit, for reads, is the 1-based bit index (into the freshly read
	// extent) to invert — silent corruption the page checksum must catch.
	// Zero means no corruption. Applied only when Err is nil.
	FlipBit int64
}

// active reports whether the fault does anything at all.
func (f Fault) active() bool {
	return f.Err != nil || f.Delay > 0 || f.FlipBit > 0
}

// Rule matches a subset of operations and attaches a Fault to them. Rules
// are evaluated in order; the first match wins.
type Rule struct {
	// Op selects which operation kind the rule watches.
	Op Op

	// Nth, when positive, matches exactly the Nth operation of that kind
	// (1-based, counted per Injector).
	Nth int

	// Every, when positive (and Nth is zero), matches every Every-th
	// operation of the kind: 1 matches all, 3 matches ops 3, 6, 9, ...
	Every int

	// Count bounds how many times the rule may fire; 0 means unlimited.
	Count int

	// Fault is what a match injects.
	Fault Fault
}

func (r Rule) matches(seq, fired int) bool {
	if r.Count > 0 && fired >= r.Count {
		return false
	}
	switch {
	case r.Nth > 0:
		return seq == r.Nth
	case r.Every > 0:
		return seq%r.Every == 0
	}
	return false
}

// Injector decides faults for a stream of operations. It is safe for
// concurrent use (a FileStore read runs on its waiter, or on a goroutine of
// a slow disk); decisions are serialized, so a scripted schedule fires each
// rule exactly as written whatever goroutine carries the operation.
type Injector struct {
	mu    sync.Mutex
	rules []Rule
	fired []int // per-rule fire count
	seq   [2]int
	count int // total faults injected

	// random profile (nil for scripted injectors)
	rng  *rand.Rand
	prof Profile

	sleep func(time.Duration) // test seam; time.Sleep by default
}

// New builds a scripted injector from rules. The zero-rule injector injects
// nothing (useful as a pass-through baseline).
func New(rules ...Rule) *Injector {
	return &Injector{
		rules: append([]Rule(nil), rules...),
		fired: make([]int, len(rules)),
		sleep: time.Sleep,
	}
}

// Profile parameterizes a seeded random injector: per-operation fault
// probabilities for the randomized soak tests. Probabilities are evaluated
// in the field order below; at most one fault fires per operation.
type Profile struct {
	// PTransientRead / PTransientWrite are the probabilities of failing an
	// operation with a retryable error.
	PTransientRead  float64
	PTransientWrite float64

	// PPermanentWrite is the probability of failing a write permanently
	// (the run is lost; the sort must abort cleanly).
	PPermanentWrite float64

	// PBitFlip is the probability of silently flipping one random bit in a
	// read extent (checksum territory).
	PBitFlip float64

	// PShortWrite is the probability of tearing a failing write short at a
	// random byte boundary (combined with a transient error, so a retry
	// must overwrite the torn bytes).
	PShortWrite float64

	// MaxDelay, when positive, sleeps a uniform duration in [0, MaxDelay)
	// before every operation.
	MaxDelay time.Duration
}

// NewSeeded builds a random injector: the same (seed, profile) pair always
// produces the same fault sequence for the same operation sequence.
func NewSeeded(seed uint64, prof Profile) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewPCG(seed, 0x6d61736f7274)), // "masort"
		prof:  prof,
		sleep: time.Sleep,
	}
}

// next serializes one decision for an operation of kind op on extent
// [off, off+n).
func (in *Injector) next(op Op, n int) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq[op]++
	var f Fault
	if in.rng != nil {
		f = in.randomFault(op, n)
	} else {
		for i, r := range in.rules {
			if r.Op != op || !r.matches(in.seq[op], in.fired[i]) {
				continue
			}
			in.fired[i]++
			f = r.Fault
			break
		}
	}
	if f.active() {
		in.count++
	}
	return f
}

func (in *Injector) randomFault(op Op, n int) Fault {
	var f Fault
	if d := in.prof.MaxDelay; d > 0 {
		f.Delay = time.Duration(in.rng.Int64N(int64(d)))
	}
	switch op {
	case Read:
		switch p := in.rng.Float64(); {
		case p < in.prof.PTransientRead:
			f.Err = Transient("injected transient read fault")
		case p < in.prof.PTransientRead+in.prof.PBitFlip && n > 0:
			f.FlipBit = 1 + in.rng.Int64N(int64(n)*8)
		}
	case Write:
		switch p := in.rng.Float64(); {
		case p < in.prof.PTransientWrite:
			f.Err = Transient("injected transient write fault")
			if in.rng.Float64() < in.prof.PShortWrite && n > 0 {
				f.Short = in.rng.IntN(n)
			}
		case p < in.prof.PTransientWrite+in.prof.PPermanentWrite:
			f.Err = Permanent("injected permanent write fault")
		}
	}
	return f
}

// Ops returns how many operations of the kind the injector has seen.
func (in *Injector) Ops(op Op) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq[op]
}

// Injected returns how many operations received an active fault.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.count
}

// BeforeWrite implements masort's FaultHooks seam for the write path: it is
// consulted before each WriteAt attempt. A non-nil error fails the attempt;
// short >= 0 additionally asks the store to land that many leading bytes
// first (a torn write the rollback path must truncate away).
func (in *Injector) BeforeWrite(off int64, b []byte) (short int, err error) {
	f := in.next(Write, len(b))
	if f.Delay > 0 {
		in.sleep(f.Delay)
	}
	if f.Err == nil {
		return -1, nil
	}
	return f.Short, f.Err
}

// AfterRead implements masort's FaultHooks seam for the read path: it is
// consulted after each ReadAt attempt has filled b and may fail the attempt
// or silently corrupt the bytes (bit-flips the page checksum must catch).
func (in *Injector) AfterRead(off int64, b []byte) error {
	f := in.next(Read, len(b))
	if f.Delay > 0 {
		in.sleep(f.Delay)
	}
	if f.Err != nil {
		return f.Err
	}
	if f.FlipBit > 0 && len(b) > 0 {
		bit := (f.FlipBit - 1) % (int64(len(b)) * 8)
		b[bit/8] ^= 1 << (bit % 8)
	}
	return nil
}

// injErr is an injected error with an explicit retry class.
type injErr struct {
	msg       string
	temporary bool
}

func (e *injErr) Error() string { return e.msg }

// Temporary reports whether the fault is retryable — the net.Error-style
// classification FileStore's retry policy consults.
func (e *injErr) Temporary() bool { return e.temporary }

// Transient builds a retryable injected error: bounded retry should absorb
// it.
func Transient(msg string) error { return &injErr{msg: "faultinject: " + msg, temporary: true} }

// Permanent builds a non-retryable injected error: the store must fail
// fast.
func Permanent(msg string) error { return &injErr{msg: "faultinject: " + msg, temporary: false} }

// IsInjected reports whether err (or anything it wraps) was minted by this
// package — lets soak tests tell injected failures from real ones.
func IsInjected(err error) bool {
	var ie *injErr
	return errors.As(err, &ie)
}

// String renders the injector's state for test failure messages.
func (in *Injector) String() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return fmt.Sprintf("faultinject{reads %d, writes %d, injected %d}",
		in.seq[Read], in.seq[Write], in.count)
}
