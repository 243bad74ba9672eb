// Package store exercises pageretain: Append page retention (rule A),
// use-after-recycle of pooled buffers (rule B), and discarded page-decode
// alias accounting (rule C) — on the shape the engine's disk-backed store
// has: one paged-run layer owning the buffer pool, over thin devices.
package store

import (
	"sync"

	"core"
	"pagecodec"
)

// goodStore is the MemStore idiom: Append deep-copies every page before
// retaining anything, so the caller may recycle its buffers the moment
// the token completes.
type goodStore struct {
	runs map[int][]core.Page
}

func (s *goodStore) Append(id int, pages []core.Page) error {
	for _, p := range pages {
		cp := make(core.Page, len(p))
		copy(cp, p)
		s.runs[id] = append(s.runs[id], cp)
	}
	return nil
}

// badStore retains the caller's pages directly: every page it "stores"
// will be overwritten the next time the engine recycles its output
// buffers.
type badStore struct {
	runs  map[int][]core.Page
	last  core.Page
	stash []core.Page
}

func (s *badStore) Append(id int, pages []core.Page) error {
	s.runs[id] = append(s.runs[id], pages...) // want `page slice from Append is stored in a map or slice element`
	return nil
}

// badStoreElem retains a single element through a range variable.
type badStoreElem struct{ badStore }

func (s *badStoreElem) Append(id int, pages []core.Page) error {
	for _, p := range pages {
		s.last = p // want `page slice from Append is stored in a struct field`
	}
	return nil
}

// badStoreLocal launders the slice through a local before retaining it.
type badStoreLocal struct{ badStore }

func (s *badStoreLocal) Append(id int, pages []core.Page) error {
	view := pages[1:]
	s.stash = view // want `page slice from Append is stored in a struct field`
	return nil
}

// badStoreGo hands the pages to a goroutine whose lifetime nothing ties
// to the write token.
type badStoreGo struct{ badStore }

func (s *badStoreGo) Append(id int, pages []core.Page) error {
	go func() {
		for range pages { // want `page slice pages captured by a goroutine launched from Append`
		}
	}()
	return nil
}

// bufPool is the paged-run layer's buffer pool: the analyzer keys on the
// getBuf/putBuf method names.
type bufPool struct{ p sync.Pool }

func (bp *bufPool) getBuf(n int) []byte {
	if b, _ := bp.p.Get().(*[]byte); b != nil && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]byte, n)
}

func (bp *bufPool) putBuf(b []byte) {
	bp.p.Put(&b)
}

// device is the thin backend under the layer: fetch either fills a pooled
// buffer (pooled == true, the caller recycles it) or returns a view the
// device keeps valid itself.
type device interface {
	WriteAt(b []byte, off int64) (int, error)
	fetch(off int64, n int, bufs *bufPool) (b []byte, pooled bool, err error)
}

// pagedStore is the layer idiom: pages are encoded into a pooled buffer
// inside Append; only the encoding travels to the writer. Clean.
type pagedStore struct {
	bufs bufPool
	dev  device
	wq   chan []byte
}

func (s *pagedStore) Append(id int, pages []core.Page) error {
	buf := s.bufs.getBuf(0)
	for i := 0; i < len(pages); i++ {
		buf = pagecodec.AppendPageSum(buf, pages[i])
	}
	s.wq <- buf
	return nil
}

// readGood is the layer's read path: one recycle point, taken only when
// the fetch was pooled and no decoded payload aliases the buffer. Clean.
func (s *pagedStore) readGood(off int64, n int) (core.Page, error) {
	buf, pooled, err := s.dev.fetch(off, n, &s.bufs)
	var (
		pg    core.Page
		alias int
	)
	if err == nil {
		pg, alias, _, err = pagecodec.DecodePageSum(buf)
	}
	if pooled && (err != nil || alias == 0) {
		s.bufs.putBuf(buf)
	}
	return pg, err
}

// readUseAfterPut recycles the buffer and then keeps decoding from it.
func (s *pagedStore) readUseAfterPut(buf []byte) (core.Page, error) {
	s.bufs.putBuf(buf)
	pg, _, _, err := pagecodec.DecodePageSum(buf) // want `buffer buf used after being returned to the pool` `aliasBytes result of page decode is discarded`
	return pg, err
}

// readPoolPut recycles through sync.Pool.Put directly.
func (s *pagedStore) readPoolPut(buf []byte) int {
	s.bufs.p.Put(&buf)
	return len(buf) // want `buffer buf used after being returned to the pool`
}

// readReassigned gets a fresh buffer after recycling the old one: the
// later uses refer to the new allocation. Clean.
func (s *pagedStore) readReassigned(buf []byte) int {
	s.bufs.putBuf(buf)
	buf = s.bufs.getBuf(0)
	return len(buf)
}

// readDropAlias recycles the buffer on an error path while discarding the
// aliasBytes result that says whether pg still points into it.
func (s *pagedStore) readDropAlias(buf []byte) (core.Page, error) {
	pg, _, _, err := pagecodec.DecodePageSum(buf) // want `aliasBytes result of page decode is discarded`
	if err != nil {
		s.bufs.putBuf(buf)
		return nil, err
	}
	return pg, nil
}

// readIntoDropAlias is readDropAlias on the frame-taking decode: the
// encoded buffer is the second argument there.
func (s *pagedStore) readIntoDropAlias(recs core.Page, buf []byte) (core.Page, error) {
	pg, _, _, err := pagecodec.DecodePageInto(recs, buf) // want `aliasBytes result of page decode is discarded`
	if err != nil {
		s.bufs.putBuf(buf)
		return nil, err
	}
	return pg, nil
}

// readErrorPathPut recycles on an early-return error path and keeps using
// the buffer on the success path. Clean: the put's branch returned.
func (s *pagedStore) readErrorPathPut(buf []byte) (core.Page, error) {
	pg, alias, _, err := pagecodec.DecodePageSum(buf)
	if err != nil {
		s.bufs.putBuf(buf)
		return nil, err
	}
	if alias == 0 {
		s.bufs.putBuf(buf)
	}
	return pg, nil
}

// fileDevice is the pooled-fetch device: it fills a buffer from the
// layer's pool and hands ownership back. Clean.
type fileDevice struct{ data []byte }

func (d fileDevice) fetch(off int64, n int, bufs *bufPool) ([]byte, bool, error) {
	b := bufs.getBuf(n)
	copy(b, d.data[off:])
	return b, true, nil
}

// leakyDevice recycles the buffer it is about to return.
type leakyDevice struct{ data []byte }

func (d leakyDevice) fetch(off int64, n int, bufs *bufPool) ([]byte, bool, error) {
	b := bufs.getBuf(n)
	copy(b, d.data[off:])
	bufs.putBuf(b)
	return b, true, nil // want `buffer b used after being returned to the pool`
}
