package masort

import (
	"iter"

	"github.com/memadapt/masort/internal/core"
)

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
// storage. The library ships four implementations (NewMemStore,
// NewFileStore, NewStripedStore and NewMmapStore); build configured
// instances with NewStoreConfig and see the package documentation for
// choosing between them.
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
//     start a reader at issue time (at most DefaultReadConcurrency reads
//     per device run at once, whoever runs them). So read tokens, like
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
//     with them by then or copy. Payload bytes are immutable and shared.
//     Pages delivered by ReadAsync belong to the store; callers must not
//     modify them, and they stay valid until the run is freed.
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
//     caller's payloads it shares, must never offer it; MemStore's encoded
//     pages offer ReleaseRecords alone.
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

// All adapts an Iterator to a Go 1.23 range-over-func sequence. The
// sequence yields at most one non-nil error, as its final pair:
//
//	for rec, err := range masort.All(it) {
//		if err != nil { ... }
//		...
//	}
func All(it Iterator) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		for {
			rec, ok, err := it.Next()
			if err != nil {
				yield(Record{}, err)
				return
			}
			if !ok {
				return
			}
			if !yield(rec, nil) {
				return
			}
		}
	}
}

// FromSeq adapts a range-over-func sequence to an Iterator, so seq-style
// producers can feed Sort, Join and GroupBy. The sequence's first non-nil
// error terminates the iterator with that error.
func FromSeq(seq iter.Seq2[Record, error]) Iterator {
	next, stop := iter.Pull2(seq)
	return &seqIterator{next: next, stop: stop}
}

type seqIterator struct {
	next func() (Record, error, bool)
	stop func()
	done bool
}

func (s *seqIterator) Next() (Record, bool, error) {
	if s.done {
		return Record{}, false, nil
	}
	rec, err, ok := s.next()
	if !ok || err != nil {
		s.done = true
		s.stop()
		return Record{}, false, err
	}
	return rec, true, nil
}

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

// runIterator streams a stored run back as records, keeping one page of
// read-ahead issued: while page i is being consumed the read of page i+1 is
// already with the store, which overlaps it with the consumer where that
// pays (a disk-backed store on a slow device) and otherwise runs it when
// the iterator gets there. It hands out Record values, never the page, so
// it gives each page's record array back to a store that wants it
// (core.RecordsReleaser) as it leaves the page; payloads stay the caller's.
type runIterator struct {
	store RunStore
	id    RunID
	pages int
	page  int
	buf   Page
	pos   int
	cur   core.RecordsReleaser // buf's token, when it takes the array back
	ahead PageToken            // issued read of page `page`, if any
}

func (r *runIterator) Next() (Record, bool, error) {
	for r.pos >= len(r.buf) {
		if r.cur != nil {
			r.buf, r.pos = nil, 0
			r.cur.ReleaseRecords()
			r.cur = nil
		}
		if r.page >= r.pages {
			return Record{}, false, nil
		}
		tok := r.ahead
		r.ahead = nil
		if tok == nil {
			tok = r.store.ReadAsync(r.id, r.page)
		}
		pg, err := tok.Wait()
		if err != nil {
			return Record{}, false, err
		}
		r.page++
		if r.page < r.pages {
			r.ahead = r.store.ReadAsync(r.id, r.page)
		}
		r.buf, r.pos = pg, 0
		r.cur, _ = tok.(core.RecordsReleaser)
	}
	rec := r.buf[r.pos]
	r.pos++
	return rec, true, nil
}
