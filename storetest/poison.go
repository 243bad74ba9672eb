package storetest

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"github.com/memadapt/masort"
)

// PoisonStore wraps a RunStore whose read tokens offer Release — the
// optional hand-back of a page's memory that lets a merge read without
// allocating — and makes every use-after-release fail loudly: its tokens'
// Release first scribbles over the page (every Key becomes ^0, every payload
// byte 0xDB) and only then forwards to the store. An engine that still reads
// a released page — through the page, a copied Record or a retained payload
// — then produces output no oracle accepts, even when the store has not
// reused the frame yet. Payloads that are views of read-only memory (a
// mapping, which Release does not recycle) cannot be scribbled on: the write
// fault is caught and the record's Payload is set to nil instead.
//
// ReleaseRecords — the records-only hand-back the output iterator makes as
// it leaves a page — gets the records-only twin: the record array is
// scribbled (keys ^0, payload headers nil) and the payload bytes are left
// alone, because the caller may rightly still hold Records it copied out. A
// reader that goes back to the page after ReleaseRecords produces garbage; a
// store that recycled payload bytes on ReleaseRecords would too, once the
// next read lands in them. Tokens of a store that offers neither pass
// through untouched.
//
// The wrapper also holds the engine to its half of the bargain: pages handed
// to Append, payload bytes included, must not change before the append's
// token completes — a store may encode them at any moment until then. The
// wrapper snapshots every batch and its token's Wait fails if the batch no
// longer matches, which is what releasing an input page at flush time (its
// payloads still aliased by the block in flight) looks like: without the
// snapshot that bug shows only once the store reuses the frame in time.
//
// Run whatever drives the store (masort.Sort, Merge, Join, GroupBy, or the
// store's own tests) through the wrapper and compare the output with an
// independent oracle. Released reports how many pages came back, which tells
// whether the path under test releases at all.
type PoisonStore struct {
	masort.RunStore
	released, recordsOnly atomic.Int64
}

// PoisonOnRelease wraps s; see PoisonStore.
func PoisonOnRelease(s masort.RunStore) *PoisonStore { return &PoisonStore{RunStore: s} }

// Released reports how many pages have been released through the wrapper,
// either way.
func (s *PoisonStore) Released() int { return int(s.released.Load()) }

// ReleasedRecords reports how many of them gave back their record array
// only (ReleaseRecords).
func (s *PoisonStore) ReleasedRecords() int { return int(s.recordsOnly.Load()) }

// Append implements masort.RunStore.
func (s *PoisonStore) Append(id masort.RunID, pages []masort.Page) (masort.Token, error) {
	snap := clonePages(pages)
	tok, err := s.RunStore.Append(id, pages)
	if err != nil {
		return tok, err
	}
	return &poisonWrite{Token: tok, pages: pages, snap: snap}, nil
}

// poisonWrite checks, at the first successful Wait, that the batch is still
// what was appended. (After Wait the engine may recycle pages at will.)
type poisonWrite struct {
	masort.Token
	pages, snap []masort.Page
}

func (t *poisonWrite) Wait() error {
	err := t.Token.Wait()
	pages, snap := t.pages, t.snap
	t.pages, t.snap = nil, nil
	if err != nil {
		return err
	}
	for i := range snap {
		if len(pages[i]) != len(snap[i]) {
			return fmt.Errorf("storetest: page %d of an append changed length before its token completed", i)
		}
		for j, want := range snap[i] {
			if got := pages[i][j]; got.Key != want.Key || !bytes.Equal(got.Payload, want.Payload) {
				return fmt.Errorf("storetest: page %d record %d of an append changed from {%d %x} to {%d %x} before its token completed",
					i, j, want.Key, want.Payload, got.Key, got.Payload)
			}
		}
	}
	return nil
}

// ReadAsync implements masort.RunStore.
func (s *PoisonStore) ReadAsync(id masort.RunID, page int) masort.PageToken {
	tok := s.RunStore.ReadAsync(id, page)
	rel, _ := tok.(releaser)
	rr, _ := tok.(recordsReleaser)
	if rel == nil && rr == nil {
		return tok
	}
	pt := &poisonToken{PageToken: tok, rr: rr, s: s}
	if rel != nil {
		return &releasingPoisonToken{pt, rel}
	}
	return pt
}

// releaser and recordsReleaser are the optional interfaces of read tokens
// (core.PageReleaser, core.RecordsReleaser).
type (
	releaser        interface{ Release() }
	recordsReleaser interface{ ReleaseRecords() }
)

// poisonToken scribbles on ReleaseRecords. Over a store that offers only
// Release it still does — the caller has given the array up all the same —
// and forwards nothing.
type poisonToken struct {
	masort.PageToken
	rr recordsReleaser // nil: the store takes no record arrays back
	s  *PoisonStore
	pg masort.Page // what Wait delivered; nil once released
}

func (t *poisonToken) Wait() (masort.Page, error) {
	pg, err := t.PageToken.Wait()
	t.pg = pg
	return pg, err
}

func (t *poisonToken) ReleaseRecords() {
	if t.pg != nil {
		for i := range t.pg {
			t.pg[i] = masort.Record{Key: ^masort.Key(0)}
		}
		t.s.released.Add(1)
		t.s.recordsOnly.Add(1)
	}
	t.pg = nil
	if t.rr != nil {
		t.rr.ReleaseRecords()
	}
}

// releasingPoisonToken is the token of a store that offers Release.
type releasingPoisonToken struct {
	*poisonToken
	rel releaser
}

func (t *releasingPoisonToken) Release() {
	if t.pg != nil {
		poison(t.pg)
		t.s.released.Add(1)
	}
	t.pg = nil
	t.rel.Release()
}

func poison(pg masort.Page) {
	// A write to a read-only mapping panics instead of killing the process.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for i := range pg {
		pg[i].Key = ^masort.Key(0)
		if !scribble(pg[i].Payload) {
			pg[i].Payload = nil
		}
	}
}

// scribble overwrites b and reports whether b was writable.
func scribble(b []byte) (ok bool) {
	defer func() { ok = recover() == nil }()
	for j := range b {
		b[j] = 0xDB
	}
	return true
}
