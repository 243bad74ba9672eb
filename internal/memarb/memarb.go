// Package memarb holds the memory arbitration shared by the simulator's
// buffer manager (internal/bufmgr.SharedPool) and the real engine
// (masort.Budget and masort.Pool): how a fixed total of buffer pages is
// divided between N adaptive operators and a stream of competing
// reservations made on behalf of higher-priority work.
//
// The policy is the paper's reservation protocol (Pang, Carey, Livny §4.2)
// generalized to multiprogramming: every registered operator is entitled to
// an equal share of whatever the competing reservations have not taken or
// been promised, floored at a per-operator guaranteed minimum. Competing
// reservations are capped so the floors always remain coverable, which is
// also the admission rule for new operators of a shared pool; an owned
// budget raises its total to cover one more floor instead.
//
// The package has two layers. Policy (this file) is pure arithmetic — no
// clocks, locks or simulator types — so the discrete-event simulation and
// the wall-clock engine compute identical entitlements from identical
// states; the simulator uses nothing else. Arbiter and Handle
// (arbiter.go) are the real engine's one concurrent arbiter over that
// arithmetic: one mutex, one condition variable, blocking waits. The
// arbiter may block its callers and reads the wall clock to time admission
// and waits for its accounts, nothing more: it starts no goroutines, sets
// no timers, and knows nothing of tracing or of the engine: what it did for
// an operator is that Handle's Stats.
package memarb

// Policy fixes the two pool constants: the total page count and the
// per-operator floor (the guaranteed minimum below which an operator's
// entitlement never drops — at least the 3 pages a merge step needs).
type Policy struct {
	Total int
	Floor int
}

// avail is the pool portion divisible among operators: everything not held
// by or promised to competing reservations.
func (p Policy) avail(reserved, pending int) int {
	return p.Total - reserved - pending
}

// Share returns the uniform per-operator entitlement: avail/ops, floored.
// This is the simulator's historical policy — the integer-division
// remainder stays unassigned. Share of zero operators is 0.
func (p Policy) Share(ops, reserved, pending int) int {
	if ops == 0 {
		return 0
	}
	s := p.avail(reserved, pending) / ops
	if s < p.Floor {
		s = p.Floor
	}
	return s
}

// ShareAt returns operator i's entitlement under the deterministic-remainder
// variant used by the real-time pool: the avail/ops base share, with the
// remainder pages assigned one each to the longest-registered operators
// (i = 0 is the oldest). Entitlements are floored per operator, total
// utilization is exact when avail ≥ ops·floor, and reclaim order is
// deterministic: when the pool shrinks, the youngest operators lose their
// remainder page first.
func (p Policy) ShareAt(i, ops, reserved, pending int) int {
	if ops == 0 {
		return 0
	}
	avail := p.avail(reserved, pending)
	s := avail / ops
	if i < avail-s*ops {
		s++
	}
	if s < p.Floor {
		s = p.Floor
	}
	return s
}

// CanAdmit reports whether one more operator fits: after admission every
// operator's floor must still be coverable by the total. This is the
// simulator's historical admission rule — blind to reservations, whose
// holders are expected to drain quickly relative to a sort's lifetime.
func (p Policy) CanAdmit(ops int) bool {
	return (ops+1)*p.Floor <= p.Total
}

// CanAdmitWith is the reservation-aware admission rule used by the
// real-time pool: one more floor must fit in what reservations have not
// taken or been promised, so an admitted operator can always actually
// acquire its floor once siblings shed down to their shares.
func (p Policy) CanAdmitWith(ops, reserved, pending int) bool {
	return (ops+1)*p.Floor <= p.avail(reserved, pending)
}

// Headroom returns the largest competing reservation that can be granted
// without breaking the registered operators' floors: the total minus the
// floors, minus pages already held by or promised to reservations. A
// non-positive result means the reservation must be rejected — it could
// never be satisfied.
func (p Policy) Headroom(ops, reserved, pending int) int {
	return p.Total - ops*p.Floor - reserved - pending
}
