package masort

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// MemStore is an in-memory RunStore. It is the default store and is also
// handy in tests.
//
// It is the paged-run store FileStore is, over a device that keeps a run's
// bytes in memory instead of in a file, and it keeps each Append batch in
// whichever of two forms is the smaller:
//
//   - Encoded, when the payloads are short — 24 bytes a record or less on
//     average. Append encodes the pages into the checksummed frames a
//     FileStore writes and copies the batch's bytes once, into a chunk of
//     its own that nothing writes again: 8 bytes of key plus the payload
//     (and its length, when the lengths differ) a record. A read decodes
//     the page in place when its token is waited for — the checksum is
//     verified, the records land in a record array the store recycles, and
//     Record.Payload sub-slices the stored chunk — so it copies no payload
//     byte. A payload kept from such a page keeps its whole chunk, the
//     batch's encoded pages, alive: copy the payloads you keep (see the
//     package's buffer-ownership notes).
//   - As record headers, when the encoding would be larger: Append copies
//     the record slices — 32 bytes a record — and shares the payload bytes,
//     which are immutable by the RunStore contract; a read returns the
//     stored page itself, which the caller must treat as read-only.
//
// So a run never costs more than a copy of its record headers, and the page
// slices may be reused as soon as Append returns. An encoded page's token
// offers ReleaseRecords, which hands the record array back; neither form
// offers Release, which would hand out bytes the store keeps — a chunk that
// later reads decode again, or the caller's payloads (see
// storetest.PoisonStore).
type MemStore struct{ *pagedStore }

// NewMemStore creates an empty in-memory run store.
func NewMemStore() *MemStore { return newMemStore(NewStoreConfig()) }

// newMemStore builds a MemStore with c's retries, fault hooks and tracer,
// which act on its encoded batches only: the hooks see each such batch
// before it is copied and each of its pages before it is decoded.
func newMemStore(c *StoreConfig) *MemStore {
	s := newStore(c, 1, openMemDevice)
	s.holdRecords = true
	return &MemStore{s}
}

// ReadAsync starts reading one page of a run; see MemStore for what the
// token offers.
func (s *MemStore) ReadAsync(id RunID, page int) PageToken {
	tok := s.pagedStore.ReadAsync(id, page)
	if t, ok := tok.(*pageToken); ok {
		return recordsToken{t}
	}
	return tok
}

// recordsToken is the read of an encoded MemStore page: a pageToken
// without Release.
type recordsToken struct{ t *pageToken }

func (t recordsToken) Wait() (Page, error) { return t.t.Wait() }

// ReleaseRecords gives the page's record array back (core.RecordsReleaser);
// the payloads stay views of the stored chunk.
func (t recordsToken) ReleaseRecords() { t.t.ReleaseRecords() }

func (t recordsToken) Retries() int { return t.t.Retries() }

// memDevice is one run's bytes in memory: each write's bytes are one chunk,
// copied in once and never written again, so fetch hands out views of them
// and a page decoded from a view stays valid for as long as anybody holds
// it — the collector, not Free or Close, takes a chunk back.
type memDevice struct {
	mu     sync.Mutex
	chunks []memChunk // back to back: chunk i+1 begins where chunk i ends
}

type memChunk struct {
	off int64
	b   []byte
}

func openMemDevice(string) (device, error) { return new(memDevice), nil }

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
	d.chunks = append(d.chunks, memChunk{off: off, b: bytes.Clone(b)})
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
	d.chunks = nil
	return nil
}
