package masort

import "github.com/memadapt/masort/internal/core"

// Record is one tuple: records order by Key, then by Payload bytes.
type Record = core.Record

// Key is the 64-bit sort key.
type Key = core.Key

// Page is one page worth of records — the unit of memory accounting.
type Page = core.Page

// RunID names a sorted run inside a RunStore.
type RunID = core.RunID

// Token is an asynchronous write completion handle.
type Token = core.Token

// PageToken is an asynchronous read completion handle.
type PageToken = core.PageToken

// RunStore stores sorted runs — the seam between the sort engine and
// storage. The library ships three implementations: MemStore
// (NewMemStore), and FileStore and MmapStore, built by NewStoreConfig's
// File and Mmap; see the package documentation for choosing between them.
//
// The contract every implementation must honor (and that the storetest
// package verifies):
//
//   - Create opens a new empty run; Append adds pages to its end and
//     returns a durability Token; ReadAsync asks for one page and returns
//     a PageToken; Pages reports pages appended so far (durable or not —
//     the bundled stores count written pages only);
//     Free releases the run and everything queued for it.
//   - Who runs a read is the store's business: all that is asked is that
//     the page is there when Wait returns. A store may read inside
//     ReadAsync, start the read there, or leave it to the first Wait — the
//     disk-backed stores run it on the waiter's own goroutine unless the
//     device has been slow enough of late for a hand-off to pay, and then
//     start a reader at issue time (at most eight reads per device run
//     at once, whoever runs them). So read tokens, like
//     write tokens, may be waited late, from any goroutine, by several at
//     once, or never: a token nobody waits for must cost nothing that
//     Free or Close would have to wait for.
//   - Append may queue: the write is durable only once its Token.Wait
//     returns nil. The engine issues at most one batch per run before
//     waiting, but tokens may be waited late or never (Free must cope).
//     The bundled stores do not queue — their Append writes (or copies)
//     before it returns, so its token is complete and the pages are
//     readable at once — but a custom store may, and the engine assumes
//     no more than this line.
//   - Buffer ownership: the caller may reuse the page slices passed to
//     Append once the token completes, so the store must either finish
//     with them by then or copy. Payload bytes are immutable and shared:
//     a store may keep references to them instead of a copy, for as long
//     as the run lives — MemStore keeps a key and a payload pointer a
//     record for payloads longer than 8 bytes, and hands those same bytes
//     back on read, each capped at its length. Pages delivered by
//     ReadAsync belong to the store; callers must not modify them, and
//     they stay valid until the run is freed.
//   - Optionally, a read token may offer Release() (core.PageReleaser,
//     found by type assertion): the reader's word that it holds no
//     reference into the page any more, after which the store may decode
//     another read into the same memory. The merge releases the input
//     pages it has consumed, once the Append of the output block holding
//     their last records has returned; nothing else ever does. A store
//     offering it must have copied every payload byte of the appended
//     pages by the time Append returns, and keep none (they alias the
//     frames being given back) — so a store whose payloads are views of
//     bytes it keeps, as MemStore's are of its stored chunks or of the
//     caller's payloads it shares, must never offer it; MemStore's pages
//     offer ReleaseRecords alone.
//     storetest.PoisonOnRelease checks a store's tokens.
//   - Optionally, and independently, a read token may offer
//     ReleaseRecords() (core.RecordsReleaser): the reader has copied the
//     Records out and will not read the Page slice again, so the store
//     may reuse the record array — and nothing else: whatever the
//     payloads alias stays untouched for as long as anyone references it.
//     Result.Iterator calls it on every page it leaves. It asks nothing
//     of Append. Both releases end the token's life, and both are no-ops
//     before Wait has delivered the page, after a failed read and the
//     second time.
//   - A terminal write failure breaks the whole run: the failing token
//     (and every later one) reports an error chain including
//     ErrStoreFailed, and subsequent Appends and reads on the run are
//     refused. Reads must never return wrong data: a page that cannot be
//     read back verbatim surfaces ErrCorruptPage.
//   - Writes to one run (Create/Append and the appends' token waits) come
//     from one goroutine at a time; different runs are written
//     concurrently. Reads are more permissive: a run that is no longer
//     being appended to may be read by several goroutines at once. Free
//     may race with in-flight reads of the same run (they may then fail,
//     but must not deliver wrong data, panic or deadlock).
type RunStore = core.RunStore

// Event is an adaptation event (see WithEvents).
type Event = core.Event

// EventKind classifies adaptation events.
type EventKind = core.EventKind

// Adaptation event kinds.
const (
	EvSplitStep    = core.EvSplitStep
	EvCombineStart = core.EvCombineStart
	EvCombineDone  = core.EvCombineDone
	EvCombineAbort = core.EvCombineAbort
	EvSuspend      = core.EvSuspend
	EvResume       = core.EvResume
	EvStepDone     = core.EvStepDone
	EvPhase        = core.EvPhase
	EvRunDone      = core.EvRunDone
	EvStepStart    = core.EvStepStart
)

// Less reports the record ordering used by all sorts and joins.
func Less(a, b Record) bool { return core.Less(a, b) }

// Iterator yields records. Next returns ok=false at end of input.
type Iterator interface {
	Next() (Record, bool, error)
}

// sliceIterator iterates over an in-memory slice.
type sliceIterator struct {
	recs []Record
	i    int
}

// NewSliceIterator returns an Iterator over recs. Operators fed from a
// slice iterator read the records in place (no per-page copy), so recs must
// not be mutated until the operator returns.
func NewSliceIterator(recs []Record) Iterator {
	return &sliceIterator{recs: recs}
}

func (s *sliceIterator) Next() (Record, bool, error) {
	if s.i >= len(s.recs) {
		return Record{}, false, nil
	}
	r := s.recs[s.i]
	s.i++
	return r, true, nil
}

// FuncIterator adapts a function to an Iterator.
type FuncIterator func() (Record, bool, error)

// Next implements Iterator.
func (f FuncIterator) Next() (Record, bool, error) { return f() }

// Drain reads an iterator to completion.
func Drain(it Iterator) ([]Record, error) {
	var out []Record
	for {
		r, ok, err := it.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// pageInput batches an Iterator into pages for the core algorithms.
type pageInput struct {
	it   Iterator
	size int
	done bool
}

func (p *pageInput) NextPage() (core.Page, bool, error) {
	if p.done {
		return nil, false, nil
	}
	// Slice inputs page without copying: the page is a sub-slice of the
	// caller's records (read-only by the Input contract). This removes a
	// per-record interface call and a per-page allocation from the split
	// phase's hottest loop.
	if s, ok := p.it.(*sliceIterator); ok {
		if s.i >= len(s.recs) {
			p.done = true
			return nil, false, nil
		}
		j := min(s.i+p.size, len(s.recs))
		pg := core.Page(s.recs[s.i:j:j])
		s.i = j
		return pg, true, nil
	}
	pg := make(core.Page, 0, p.size)
	for len(pg) < p.size {
		r, ok, err := p.it.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			p.done = true
			break
		}
		pg = append(pg, r)
	}
	if len(pg) == 0 {
		return nil, false, nil
	}
	return pg, true, nil
}
