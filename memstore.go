package masort

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// MemStore is an in-memory RunStore. It is the default store and is also
// handy in tests.
//
// It is the paged-run store FileStore is, over a device that keeps a run's
// bytes in memory instead of in a file, and it keeps each Append batch in
// whichever of two forms it allocates fewer bytes for:
//
//   - By reference, when the payloads are longer than 8 bytes (11 on
//     average, when their lengths differ): Append
//     keeps each record's key and a pointer to its payload — 16 bytes a
//     record, and a 4-byte length when the batch's payloads differ in
//     length — and shares the payload bytes, which are immutable by the
//     RunStore contract. Nothing is encoded, checksummed or decoded: a read
//     rebuilds the page's records into a record array the store recycles,
//     each payload the caller's own bytes with no spare capacity, so an
//     append to one cannot write over the caller's next bytes.
//   - Encoded, when the payloads are shorter (key-only records included):
//     Append encodes the pages into the checksummed frames a
//     FileStore writes and copies the batch's bytes once, into a chunk of
//     its own that nothing writes again: 8 bytes of key plus the payload
//     (and its length, when the lengths differ) a record. A read decodes
//     the page in place when its token is waited for — the checksum is
//     verified, the records land in a recycled record array, and
//     Record.Payload sub-slices the stored chunk — so it copies no payload
//     byte. A payload kept from such a page keeps its whole chunk, the
//     batch's encoded pages, alive: copy the payloads you keep (see the
//     package's buffer-ownership notes).
//
// Three kinds of batch are encoded whatever their payloads' length: every
// batch of a store built with fault hooks, since the hooks act on bytes; a
// batch with a payload that lies in one of the store's own chunks — a merge
// step's output over an encoded run — since holding it would keep that
// chunk alive after its run is freed; and a batch an operator writes of
// payloads it made itself, one allocation a record that nothing else refers
// to — a Join's output tuples, SortT's encodings, on a
// MemStore the operator is given itself rather than wrapped — since
// holding those would keep every allocation alive where the encoded form
// keeps the bytes alone (a Join's result, 16–24-byte tuples: 35 bytes a
// tuple, 46 if they were held).
//
// A shared payload lives as long as the run that refers to it, and so do
// the buffers it sits in. When the caller's payloads stay resident anyway —
// a slice of records it sorts, lines it read into memory — the store adds
// 16 bytes a record to them; when its input iterator makes a fresh payload
// for each record and drops it, the runs keep those payloads alive, where
// an encoded run would have copied them and let them go: such a caller
// spends less by appending its payloads to buffers it keeps. Live heap a
// record at the start of the merge (a million records, 100 000 at 1 KiB;
// after a collection; resident payloads not counted):
//
//	payload   resident payloads       streamed payloads
//	          encoded  by reference   encoded  by reference
//	16 B      26.8 B   17.1 B         26.8 B   33.1 B
//	64 B      75.1 B   17.1 B         75.1 B   81.1 B
//	1 KiB     1 070 B  17.1 B         1 070 B  1 041 B
//
// The page slices may be reused as soon as Append returns. A page's read
// token offers ReleaseRecords, which hands the record array back; neither
// form offers Release, which would hand out bytes the store keeps — a chunk
// that later reads decode again, or the caller's payloads (see
// storetest.PoisonStore).
type MemStore struct{ *pagedStore }

// NewMemStore creates an empty in-memory run store.
func NewMemStore() *MemStore { return newMemStore(NewStoreConfig()) }

// newMemStore builds a MemStore with c's retries and fault hooks.
// With fault hooks it encodes every batch, so that the hooks see each batch
// before it is copied and each page before it is decoded; without, it keeps
// the smaller form.
func newMemStore(c *StoreConfig) *MemStore {
	var chunks *chunkIndex
	if c.faultsAt(0) == nil {
		chunks = new(chunkIndex)
	}
	s := newStore(c, 1, func(string) (device, error) { return &memDevice{index: chunks}, nil })
	s.holdRecords = chunks
	return &MemStore{s}
}

// ReadAsync starts reading one page of a run; see MemStore for what the
// token offers.
func (s *MemStore) ReadAsync(id RunID, page int) PageToken {
	h, err := s.issue(id, page)
	if err != nil {
		return refusedRead{err: err}
	}
	return recordsToken{h}
}

// ownedStore is the MemStore as seen by an operator writing payloads it
// made itself — a join's output tuples, SortT's encodings
// (core.Env.Owned): the runs it creates copy their payloads rather than
// share them.
type ownedStore struct {
	RunStore // the operator's view of the store: the MemStore, maybe traced
	s        *pagedStore
}

func (o ownedStore) Create() (RunID, error) { return o.s.createOwned() }

// recordsToken is the read of a MemStore page: a pagedStore read without
// Release.
type recordsToken struct{ h readHandle }

func (t recordsToken) Wait() (Page, error) { return t.h.Wait() }

// ReleaseRecords gives the page's record array back (core.RecordsReleaser);
// the payloads stay views of the stored chunk, or the caller's bytes.
func (t recordsToken) ReleaseRecords() { t.h.ReleaseRecords() }

func (t recordsToken) Retries() int { return t.h.Retries() }

// memDevice is one run's bytes in memory: each write's bytes are one chunk,
// copied in once and never written again, so fetch hands out views of them
// and a page decoded from a view stays valid for as long as anybody holds
// it — the collector, not Free or Close, takes a chunk back.
type memDevice struct {
	mu     sync.Mutex
	chunks []memChunk  // back to back: chunk i+1 begins where chunk i ends
	index  *chunkIndex // the store's, which lists the chunks while they are the run's; or nil
}

type memChunk struct {
	off int64
	b   []byte
}

// WriteAt replaces everything from off on with a copy of b. The store writes
// a batch at the run's end and retries it at the same offset, over whatever
// a torn attempt left there, so no byte before off is ever rewritten and
// none after it is indexed yet.
func (d *memDevice) WriteAt(b []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size := d.size(); off > size {
		return 0, fmt.Errorf("write at %d past the end of a %d-byte run", off, size)
	}
	d.truncate(off)
	c := bytes.Clone(b)
	d.chunks = append(d.chunks, memChunk{off: off, b: c})
	d.index.add(c)
	return len(b), nil
}

// fetch returns a view of the n bytes at off, which lie in one chunk: a
// page is encoded within one batch.
func (d *memDevice) fetch(off int64, n int, _ *bufPool) ([]byte, *rawBuf, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The last chunk beginning at or before off.
	i := sort.Search(len(d.chunks), func(i int) bool { return d.chunks[i].off > off }) - 1
	if i >= 0 {
		c := d.chunks[i]
		if lo, hi := off-c.off, off-c.off+int64(n); hi <= int64(len(c.b)) {
			return c.b[lo:hi:hi], nil, nil
		}
	}
	return nil, nil, fmt.Errorf("extent [%d, %d) is not within one chunk of a %d-byte run", off, off+int64(n), d.size())
}

// Truncate cuts the run back to size bytes; the store never grows it so.
func (d *memDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.truncate(size)
	return nil
}

// truncate drops every byte from size on. A chunk that straddles size is
// resliced, not rewritten: its head may have been read. Callers hold d.mu.
func (d *memDevice) truncate(size int64) {
	k := len(d.chunks)
	for k > 0 && d.chunks[k-1].off >= size {
		k--
	}
	for _, c := range d.chunks[k:] {
		d.index.remove(c.b)
	}
	clear(d.chunks[k:])
	d.chunks = d.chunks[:k]
	if k > 0 {
		if c := &d.chunks[k-1]; c.off+int64(len(c.b)) > size {
			c.b = c.b[:size-c.off]
		}
	}
}

// size is the run's length in bytes. Callers hold d.mu.
func (d *memDevice) size() int64 {
	if k := len(d.chunks) - 1; k >= 0 {
		return d.chunks[k].off + int64(len(d.chunks[k].b))
	}
	return 0
}

// remove drops the run's chunks; views of them stay good.
func (d *memDevice) remove() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.truncate(0)
	return nil
}

// chunkIndex lists where the chunks of a MemStore's runs lie in memory. A
// merge step's output records share their payloads with its input pages,
// and the payloads of a page read from an encoded batch lie in that batch's
// chunk: held by reference, one such payload would keep its whole chunk
// alive after the input run is freed, so Append encodes a batch that has
// one (views).
type chunkIndex struct {
	mu    sync.Mutex
	spans []span // disjoint, by address
}

// span is the address range [lo, hi) of one chunk's bytes.
type span struct{ lo, hi uintptr }

func spanOf(b []byte) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return span{lo, lo + uintptr(cap(b))}
}

// find returns the index of the span at or after lo. Callers hold x.mu.
func (x *chunkIndex) find(lo uintptr) (int, bool) {
	return slices.BinarySearchFunc(x.spans, lo, func(s span, lo uintptr) int { return cmp.Compare(s.lo, lo) })
}

func (x *chunkIndex) add(b []byte) {
	if x == nil || cap(b) == 0 {
		return
	}
	s := spanOf(b)
	x.mu.Lock()
	defer x.mu.Unlock()
	i, _ := x.find(s.lo)
	x.spans = slices.Insert(x.spans, i, s)
}

func (x *chunkIndex) remove(b []byte) {
	if x == nil || cap(b) == 0 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if i, ok := x.find(spanOf(b).lo); ok {
		x.spans = slices.Delete(x.spans, i, i+1)
	}
}

// views reports whether a payload of pages lies in a chunk of the index.
func (x *chunkIndex) views(pages []Page) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.spans) == 0 {
		return false
	}
	for _, pg := range pages {
		for _, rec := range pg {
			if len(rec.Payload) == 0 {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.SliceData(rec.Payload)))
			// The span that begins at p, or else the last before it.
			i, ok := x.find(p)
			if !ok {
				i--
			}
			if i >= 0 && p < x.spans[i].hi {
				return true
			}
		}
	}
	return false
}
