package masort

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/memadapt/masort/internal/pagecodec"
)

// readConcurrency is how many page reads a disk-backed store executes
// in parallel per device, whoever runs them: a read a waiter runs inline
// takes a slot like one handed to a reader goroutine. External-memory merges
// read one page from each of up to fan-in runs at a time; a handful of
// outstanding positional reads keeps the device busy without thrashing it.
const readConcurrency = 8

// dispatchFetchTime is how slow a device's recent fetches must have been for
// ReadAsync to hand a read to a goroutine of its own instead of leaving it
// to whoever waits for it. Handing off costs a goroutine, a completion
// channel and a wake-up — of the order of 10 µs of CPU a page, against the
// ≈ 10 µs a whole page read takes inline when the page cache holds the file
// — and buys overlap worth one fetch time; so it pays only on a device whose
// fetches take clearly longer than the hand-off. The margin keeps a cached
// file's occasional slow fetch (a preempted reader) from flipping the rule.
const dispatchFetchTime = 50 * time.Microsecond

// device is one run's bytes on one disk: a growable extent addressed by
// offset — a file, or memory (memDevice). It is everything a store backend
// has to supply; pages, checksums, retries and fault injection all
// live above it in pagedStore, which calls a device's WriteAt and Truncate from one Append of
// the run at a time and fetch from any number of readers concurrently.
type device interface {
	// WriteAt writes b at off, as io.WriterAt.
	WriteAt(b []byte, off int64) (int, error)

	// fetch returns the n bytes at off. A device that reads into memory takes
	// a raw buffer from bufs, reads into it — grown when too small — and
	// returns it as raw with b its bytes, also when err is non-nil: the caller
	// puts it back. Otherwise raw is nil and b is a read-only view the device
	// keeps valid until the store is closed.
	fetch(off int64, n int, bufs *bufPool) (b []byte, raw *rawBuf, err error)

	// Truncate cuts the extent back to size bytes.
	Truncate(size int64) error

	// remove closes the extent and deletes its backing file.
	remove() error
}

// bufPool recycles the store's raw buffers: the encoded bytes of a batch
// between Append's encode and its write, and of a page between a read's
// fetch and its decode. Either way the buffer is back before the call that
// took it returns, so no encoded byte ever leaves the store, and the list
// holds at most as many buffers as were ever out at once — one per running
// Append or read — and never more than maxFreeFrames. It is a list rather
// than a sync.Pool, which empties at every collection: a store's allocation
// must not depend on when the collector runs.
type bufPool struct {
	mu   sync.Mutex
	free []*rawBuf // at most maxFreeFrames
}

// rawBuf owns one listed buffer; b keeps its capacity from use to use.
type rawBuf struct{ b []byte }

// getBuf returns a buffer whose contents are dead; a listed one is used
// whatever its capacity — its user grows it — never discarded as too small.
func (bp *bufPool) getBuf() *rawBuf {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if k := len(bp.free) - 1; k >= 0 {
		rb := bp.free[k]
		bp.free[k] = nil
		bp.free = bp.free[:k]
		return rb
	}
	return new(rawBuf)
}

func (bp *bufPool) putBuf(rb *rawBuf) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if len(bp.free) < maxFreeFrames {
		bp.free = append(bp.free, rb)
	}
}

// maxFreeFrames bounds a store's free list of read frames, and of read
// tokens. A frame is as large as the page it last held, so the list holds at
// most 64 pages of the caller's geometry — ≈ 0.8 MB per store at the default
// 256-record page with 16-byte payloads (8 KB of records + 4 KB of payloads a
// frame) — whatever the budget, the number of runs or the input size; a
// token is a few words. A steady merge keeps only a few of either here (it
// takes one per read and gives one back per page consumed); the bound
// matters when a wide merge step ends and returns its whole fan-in at once.
// (The other constant-bounded holder on this path is the merge's pending
// output block, see mergeBlockPages.)
const maxFreeFrames = 64

// frame is the memory of one decoded page: the record array and, for a page
// whose bytes were read into memory, the arena its payloads were copied
// into, back to back — payload bytes and nothing else. A page decoded in
// place from a device's view has no arena: its payloads alias the view.
type frame struct {
	recs Page
	buf  []byte
}

// frameList is a store's free list of read frames, kept as its two kinds of
// part (a dead record array and a dead arena owe each other nothing), and of
// the read tokens that carried them. What comes back: whole pages whose
// reader calls Release — the merge's consumed inputs — the record arrays of
// pages whose reader calls ReleaseRecords — the output iterator's, page by
// page; their arenas are the payloads the caller may keep — and both parts
// of a read attempt that failed; everything else is garbage-collected, and a
// read that finds a part missing allocates it. A token comes back with its
// page, by either release; one whose read failed, or that nobody releases,
// is the collector's.
type frameList struct {
	mu   sync.Mutex
	recs []Page       // at most maxFreeFrames
	bufs [][]byte     // at most maxFreeFrames
	toks []*pageToken // at most maxFreeFrames; released, so no handle reaches them
}

func (fl *frameList) get() (fr frame) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if k := len(fl.recs) - 1; k >= 0 {
		fr.recs = fl.recs[k]
		fl.recs[k] = nil
		fl.recs = fl.recs[:k]
	}
	if k := len(fl.bufs) - 1; k >= 0 {
		fr.buf = fl.bufs[k]
		fl.bufs[k] = nil
		fl.bufs = fl.bufs[:k]
	}
	return fr
}

// put moves *fr's parts onto the list (dropping what a full list cannot
// take) and empties it, under the list's lock: a frame can be put only once,
// however many times and from wherever put is called on its holder. A
// listed record array drops its records' payloads first, to its capacity, so
// that it keeps alive none of the bytes they pointed at. With withBuf false
// the arena is dropped instead of listed: somebody may still hold payloads
// in it.
func (fl *frameList) put(fr *frame, withBuf bool) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fr.recs != nil && len(fl.recs) < maxFreeFrames {
		recs := fr.recs[:cap(fr.recs)]
		for i := range recs {
			recs[i].Payload = nil
		}
		fl.recs = append(fl.recs, recs[:0])
	}
	if withBuf && fr.buf != nil && len(fl.bufs) < maxFreeFrames {
		fl.bufs = append(fl.bufs, fr.buf[:0])
	}
	*fr = frame{}
}

// token returns a released read token, or a new one: the one place a
// pageToken is made. Its generation is the one its last handle went stale
// at; everything else is the issuer's to set.
func (fl *frameList) token() *pageToken {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if k := len(fl.toks) - 1; k >= 0 {
		t := fl.toks[k]
		fl.toks[k] = nil
		fl.toks = fl.toks[:k]
		return t
	}
	return new(pageToken)
}

func (fl *frameList) putToken(t *pageToken) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if len(fl.toks) < maxFreeFrames {
		fl.toks = append(fl.toks, t)
	}
}

// disk is one directory of a store — one device of the paper's Disks
// experiment — with the per-device policy the store applies to it. A
// MemStore's one disk has no directory.
type disk struct {
	dir     string
	own     bool          // remove dir on Close
	faults  FaultHooks    // nil: physical I/O untouched
	readSem chan struct{} // bounds concurrently executing page reads

	// fetchNanos is a moving average (weight 1/8 a sample, from zero) of how
	// long the disk's recent fetches took, fault hooks included, on the
	// monotonic clock; every read attempt feeds it, whoever ran it. A disk
	// with no sample yet counts as fast. Updates may race and lose a sample.
	fetchNanos atomic.Int64
}

// slow reports whether a read of this disk is worth a goroutine of its own
// (see dispatchFetchTime).
func (d *disk) slow() bool { return d.fetchNanos.Load() > int64(dispatchFetchTime) }

func (d *disk) noteFetch(took time.Duration) {
	avg := d.fetchNanos.Load()
	d.fetchNanos.Store(avg + (int64(took)-avg)/8)
}

// pagedStore is the one RunStore implementation; MemStore, FileStore and
// MmapStore are this type over different devices and directory counts. A
// run is a sequence of checksummed page frames spread round-robin over the
// store's N disks — page i lives on disk i mod N — with one in-memory page
// index per run; a single directory is simply N = 1.
//
// A write is synchronous and a read runs where it is waited for:
//
//   - Append encodes each participating disk's share of the pages into a
//     pooled buffer and writes it with one positional write, on the caller's
//     goroutine, and only then publishes the pages in the run's index — so
//     the index describes written pages and nothing else, and the returned
//     Token is complete. The store opens its files buffered and never syncs
//     them: a write returns when the kernel has the bytes, which is a copy
//     into the page cache, and the kernel's write-back is the asynchronous
//     half. The store never retains the page slices.
//   - ReadAsync validates the request, records the page's exact extent in
//     the token and returns; the read itself — readPage: a slot of the disk's
//     read concurrency, fetch, checksum, decode, retry — runs where it is
//     waited for. The first Wait claims the token and runs the read on its
//     own goroutine: the paper's merge holds one buffer per input and waits
//     on the line after it asks, so on a device the page cache hides a
//     hand-off would cost more than the read. Only when the disk's recent
//     fetches have been slow (dispatchFetchTime) does ReadAsync start a
//     reader goroutine for the token at once, so read-ahead and a batch of N
//     merge inputs overlap the device and each other, at most
//     readConcurrency per disk. A token nobody waits for costs no I/O
//     and holds nothing but its own few words. Reads never contend with an
//     Append for a file offset: a page can be asked for only once it is in
//     the index, and by then its bytes are in the file. Raw page bytes never
//     leave the store: a device that reads into memory fills a pooled raw
//     buffer, the page is decoded out of it by copy — payloads back to back
//     in the frame's arena, which is what Record.Payload sub-slices — and
//     the raw buffer is back in the pool when the read returns; only a
//     device that hands out views of memory it keeps valid (the mapping, a
//     MemStore's chunks) is decoded in place (see the package's
//     buffer-ownership notes). The read token offers Release — a reader
//     that is done with the page hands its frame back for the next read,
//     and the token with it, which is how a merge reads without allocating
//     more than the token's 16-byte handle — and ReleaseRecords,
//     for a reader that has copied the Records out and may still hold their
//     payloads: the record array comes back, the arena stays the
//     collector's. (MemStore's token offers ReleaseRecords alone: see
//     MemStore.) Pages never released are the collector's whole, as ever.
//   - A batch a store that holds records keeps in reference form
//     (holdRecords: its keys and pointers to the caller's payloads, as
//     columns in the run's index) writes nothing and reads nothing: Append
//     enters it in the index, and ReadAsync rebuilds a page's records into
//     a record array from the free list and returns the token complete.
//     A run created by createOwned, and a batch with a payload in one of
//     the store's chunks (a view a read decoded in place), are encoded.
//
// The store does not assume a perfect disk. A page that fails its checksum
// is re-read once before the read fails with ErrCorruptPage in the chain;
// transient I/O errors are retried per the RetryPolicy; errors that survive
// retry — or are permanent up front, like ENOSPC — wrap ErrStoreFailed. A
// write that fails terminally breaks the whole run: the failing disk is cut
// back to where the batch began, none of the batch's pages enters the index,
// and the batch's token and every subsequent Append, ReadAsync and running
// read on the run report the failure — a broken run is never half-consumed.
type pagedStore struct {
	disks  []disk // fixed at construction: runs point into it
	open   func(path string) (device, error)
	retry  RetryPolicy // zero value: a single attempt
	bufs   bufPool
	frames frameList

	// holdRecords, when set, keeps a batch whose encoding would be larger
	// than its reference form — a key and a pointer to the caller's payload
	// a record — in that form instead (MemStore without fault hooks), unless
	// its run copies its payloads (createOwned) or a payload lies in one of
	// the store's own chunks, which it lists.
	holdRecords *chunkIndex

	// Reads by who ran them: a waiter, or a goroutine started at issue.
	inlineReads, dispatchedReads atomic.Int64
	now                          func() time.Time // times the fetches; time.Now outside tests

	mu   sync.Mutex
	runs map[RunID]*pagedRun
	next RunID // ids are handed out in order: one below next and not in runs was freed
}

// newPagedStore builds a store over one disk per entry of dirs, creating
// missing directories; an empty entry becomes a fresh temporary directory
// that Close removes.
func newPagedStore(cfg *StoreConfig, dirs []string, open func(string) (device, error)) (*pagedStore, error) {
	s := newStore(cfg, len(dirs), open)
	for i, dir := range dirs {
		own := dir == ""
		var err error
		if own {
			dir, err = os.MkdirTemp("", "masort-runs-")
		} else {
			err = os.MkdirAll(dir, 0o755)
		}
		if err != nil {
			_ = s.removeOwnedDirs()
			return nil, err
		}
		s.disks[i].dir, s.disks[i].own = dir, own
	}
	return s, nil
}

// newStore builds a store over n disks with no directory: open is handed
// the bare file name of a run, which a device that keeps its bytes in
// memory ignores.
func newStore(cfg *StoreConfig, n int, open func(string) (device, error)) *pagedStore {
	s := &pagedStore{
		disks: make([]disk, n),
		open:  open,
		retry: cfg.retry,
		now:   time.Now,
		runs:  map[RunID]*pagedRun{},
	}
	for i := range s.disks {
		s.disks[i].faults = cfg.faultsAt(i)
		s.disks[i].readSem = make(chan struct{}, readConcurrency)
	}
	return s
}

func (s *pagedStore) removeOwnedDirs() error {
	var first error
	for i := range s.disks {
		if d := &s.disks[i]; d.own {
			if err := os.Remove(d.dir); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// pagedRun is one run: its page index and, per disk, an extent. wmu
// serializes the run's Appends — each holds it from its first check to the
// publication of its pages, through every write, hook and backoff — and mu
// guards what readers see: offsets and the extents' end move together, once
// per batch, after the batch's bytes are in the files.
type pagedRun struct {
	wmu sync.Mutex // held by Append; teardown takes it to wait one out

	mu      sync.Mutex
	offsets []int64    // page i is on exts[i%len(exts)] at byte offsets[i]
	held    []heldPage // page i is held[i] when that has a batch (holdRecords)
	exts    []runExtent
	werr    error // sticky write error (run is broken)
	closing bool  // Free/Close in progress: reject new work
	owned   bool  // its payloads are its writer's own: never held (createOwned)

	readers sync.WaitGroup // page reads that are running (counted under mu while !closing)
}

// runExtent is one run's share of one disk.
type runExtent struct {
	dev  device
	disk *disk
	end  int64 // offset past the last indexed page
}

// readyToken is the completed token of a batch that went through at the
// first attempt, was held or had no pages; refusedRead is a read refused
// before it began.
type readyToken struct{}

func (readyToken) Wait() error { return nil }

type refusedRead struct{ err error }

func (t refusedRead) Wait() (Page, error) { return nil, t.err }

// writeToken is the completed token of a batch that was retried or failed;
// one that went through at the first attempt gets a readyToken.
type writeToken struct {
	err     error
	retries int
}

func (t writeToken) Wait() error { return t.err }

// Retries reports how many failed write attempts were retried, across all
// disks, before the batch settled.
func (t writeToken) Retries() int { return t.retries }

// pageToken is one page read: a request that whoever reaches it first
// executes. state moves unclaimed → running → done, once each way. ReadAsync
// leaves the token unclaimed, or — on a slow disk — running on a reader
// goroutine; the first Wait to find it unclaimed claims it and runs readPage
// itself. Whoever runs the read writes fr, err and retries and then stores
// done, which is what lets every later reader of state see them. The token
// owns the frame its page was decoded into until a release gives it back.
//
// A token is recycled: the release that gives a read's page back also puts
// the token on the store's free list (frameList), for a later read. Callers
// hold it through a readHandle, which names one read — one generation of the
// token — so that a handle used after its release, when the token may carry
// another read, touches nothing. A read that failed keeps its token, and its
// error, for as long as anybody holds a handle to it.
type pageToken struct {
	s        *pagedStore
	r        *pagedRun
	id       RunID
	page     int
	off, end int64 // the page's extent on r.exts[page%len(r.exts)]

	state atomic.Uint32
	mu    sync.Mutex    // guards done against the done transition, and the release
	done  chan struct{} // made by a Wait that finds somebody else running the read

	// gen counts the token's releases; it moves under mu, with the release
	// that ends a read, and a handle whose gen it no longer is is stale.
	gen atomic.Uint64

	fr      frame // fr.recs is the page; empty on error
	err     error
	retries int
}

const (
	readUnclaimed uint32 = iota
	readRunning
	readDone
)

// readHandle is a pagedStore read token as its caller holds it: the token
// and the generation of it that is this read.
type readHandle struct {
	t   *pageToken
	gen uint64
}

// stale reports whether the read h names has been released.
func (h readHandle) stale() bool { return h.t.gen.Load() != h.gen }

// Wait returns the page, running the read on the caller's goroutine unless
// a reader goroutine or another waiter already has it. After a release it
// yields no page and no error.
func (h readHandle) Wait() (Page, error) {
	t := h.t
	if h.stale() {
		return nil, nil
	}
	switch {
	case t.state.Load() == readDone:
	case t.state.CompareAndSwap(readUnclaimed, readRunning):
		t.s.inlineReads.Add(1)
		t.s.readPage(t, false)
	default:
		t.mu.Lock()
		if t.state.Load() == readDone {
			t.mu.Unlock()
			break
		}
		if t.done == nil {
			t.done = make(chan struct{})
		}
		done := t.done
		t.mu.Unlock()
		<-done
	}
	return t.fr.recs, t.err
}

// finish publishes the read's outcome and wakes the waiters that found it
// running. It is the last the read does with the token: once state is done,
// a release may hand the token to another read.
func (t *pageToken) finish() {
	t.mu.Lock()
	t.state.Store(readDone)
	if t.done != nil {
		close(t.done)
	}
	t.mu.Unlock()
}

// Release returns the page's frame to the store for reuse by a later read
// (see core.PageReleaser): the caller must hold no reference to the page,
// its records' payloads included. It ends the token's life — Wait yields no
// page afterwards — and a second call is a no-op, as is a call on a token
// whose read has not completed or has failed: there is no page to give back.
func (h readHandle) Release() { h.release(true) }

// ReleaseRecords is Release for a caller that has copied the page's Records
// out and may still hold them (see core.RecordsReleaser): the record array
// goes back to the store, the bytes the payloads alias — the page's arena,
// or a device's view — never do.
func (h readHandle) ReleaseRecords() { h.release(false) }

// release ends the read h names, if it completed without error: the frame
// and then the token go back on the store's free list, and every handle to
// this read goes stale.
func (h readHandle) release(withBuf bool) {
	t := h.t
	if t.state.Load() != readDone {
		return
	}
	t.mu.Lock()
	if h.stale() || t.err != nil {
		t.mu.Unlock()
		return
	}
	t.gen.Add(1)
	t.mu.Unlock()
	t.s.frames.put(&t.fr, withBuf)
	t.r = nil // a listed token pins no run
	t.s.frames.putToken(t)
}

// Retries reports how many failed read attempts (transient errors and
// corruption re-reads) were retried before the read settled. Valid after
// Wait returns, and 0 after a release.
func (h readHandle) Retries() int {
	if h.stale() {
		return 0
	}
	return h.t.retries
}

// permanentIOErr is the retry loops' error taxonomy: it reports whether err
// will not improve with retry — out of space, read-only filesystem, or
// anything self-reporting Temporary() == false (net.Error style, and
// faultinject's injected errors). Everything else is presumed transient
// (EINTR, injected timeouts, unknown errors): a bounded retry of a truly
// broken device only delays the inevitable failure slightly.
func permanentIOErr(err error) bool {
	if errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EROFS) {
		return true
	}
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && !t.Temporary()
}

// Create opens a new empty run: one extent per disk.
func (s *pagedStore) Create() (RunID, error) { return s.create(false) }

// createOwned creates a run for records whose payloads its writer made for
// it and keeps no other reference to — a join's output tuples: a store that
// holds records copies these, since sharing them would keep one allocation
// a record alive where the encoded form keeps the bytes alone.
func (s *pagedStore) createOwned() (RunID, error) { return s.create(true) }

func (s *pagedStore) create(owned bool) (RunID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	r := &pagedRun{exts: make([]runExtent, len(s.disks)), owned: owned}
	name := fmt.Sprintf("run-%06d.bin", id)
	for i := range s.disks {
		dev, err := s.open(filepath.Join(s.disks[i].dir, name))
		if err != nil {
			for _, x := range r.exts[:i] {
				_ = x.dev.remove()
			}
			return 0, err
		}
		r.exts[i] = runExtent{dev: dev, disk: &s.disks[i]}
	}
	s.runs[id] = r
	return id, nil
}

// run returns the run id names, or nil and whether it was freed — handed
// out and freed since — rather than never created; the store holds nothing
// for a freed run.
func (s *pagedStore) run(id RunID) (*pagedRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.runs[id]
	return r, r == nil && s.freed(id)
}

// freed tells, of an id that is not in s.runs, whether it was ever handed
// out. Callers hold s.mu.
func (s *pagedStore) freed(id RunID) bool { return id >= 0 && id < s.next }

// Append encodes pages and writes them, on the caller's goroutine, and then
// enters them in the page index: when it returns the pages are readable and
// the token is complete. A write that fails terminally comes back in that
// token (with the retries spent on the batch), not as Append's error: the
// failing extent is cut back to where the batch began, the index is left as
// it was and the run is broken. The store keeps none of the pages: what
// outlives the call is their encoding, on the device — or, on a store that
// holds records, their keys and payload references, when those are the
// smaller.
func (s *pagedStore) Append(id RunID, pages []Page) (Token, error) {
	r, freed := s.run(id)
	if r == nil {
		if freed {
			return nil, fmt.Errorf("masort: append to freed run %d", id)
		}
		return nil, fmt.Errorf("masort: append to unknown run %d", id)
	}
	if len(pages) == 0 {
		return readyToken{}, nil
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	r.mu.Lock()
	werr, closing := r.werr, r.closing
	n, first := len(r.exts), len(r.offsets)
	// The batch's index entries are filled in beyond len(r.offsets), where
	// no reader looks, and published by the reslice below.
	r.offsets = slices.Grow(r.offsets, len(pages))
	offsets := r.offsets[first : first+len(pages)]
	r.mu.Unlock()
	if werr != nil {
		return nil, fmt.Errorf("masort: append to broken run %d: %w", id, werr)
	}
	if closing {
		return nil, fmt.Errorf("masort: append to freed run %d", id)
	}
	if s.holdRecords != nil && !r.owned {
		if larger, size := encodingLarger(pages); larger && !s.holdRecords.views(pages) {
			r.hold(first, offsets, pages, size)
			return readyToken{}, nil
		}
	}
	var stack [4]int64 // keeps the common narrow stripe off the heap
	ends := stack[:0]  // of the participating extents, in batch order
	raw := s.bufs.getBuf()
	retries := 0
	// One pass per participating disk: its pages are every n-th of the
	// batch, encoded back to back into one buffer for one positional write.
	for k := 0; k < n && k < len(pages); k++ {
		x := &r.exts[(first+k)%n]
		raw.b = raw.b[:0]
		for i := k; i < len(pages); i += n {
			offsets[i] = x.end + int64(len(raw.b))
			raw.b = pagecodec.AppendPageSum(raw.b, pages[i])
		}
		tries, err := s.writeBatch(r, x, x.end, raw.b)
		retries += tries
		if err != nil {
			s.bufs.putBuf(raw)
			// What earlier disks took of this batch stays past their end,
			// unindexed; the failing one may hold a torn write.
			_ = x.dev.Truncate(x.end)
			r.mu.Lock()
			r.werr = err
			r.mu.Unlock()
			return writeToken{err: err, retries: retries}, nil
		}
		ends = append(ends, x.end+int64(len(raw.b)))
	}
	s.bufs.putBuf(raw)
	r.mu.Lock()
	r.offsets = r.offsets[:first+len(pages)]
	for k, end := range ends {
		r.exts[(first+k)%n].end = end
	}
	r.mu.Unlock()
	if retries > 0 {
		return writeToken{retries: retries}, nil
	}
	return readyToken{}, nil
}

// encodingLarger reports whether pages would take more bytes encoded — a
// key and a payload a record, and a length byte or more when the lengths
// differ, give or take the frame — than in reference form: a key and a
// payload pointer a record, and a 4-byte length when the lengths differ.
// size is the length of every payload, or -1 when they differ. A batch with
// a payload too long for the length column is never the larger encoded.
func encodingLarger(pages []Page) (larger bool, size int) {
	payload, recs, size := 0, 0, -1
	for _, pg := range pages {
		for _, rec := range pg {
			n := len(rec.Payload)
			switch {
			case uint64(n) > math.MaxUint32:
				return false, 0
			case recs == 0:
				size = n
			case n != size:
				size = -1
			}
			payload += n
			recs++
		}
	}
	encoded, refs := 8*recs+payload, 16*recs
	if size < 0 {
		encoded, refs = encoded+recs, refs+4*recs
	}
	return recs > 0 && encoded > refs, size
}

// heldPage is one page of a batch held in reference form: records lo to hi
// of the batch.
type heldPage struct {
	b      *heldBatch
	lo, hi int
}

// heldBatch is a batch in reference form, as columns: record i has key
// keys[i] and the payload of lens[i] bytes — size bytes when lens is nil —
// that record i's pointer points to, which is the caller's, shared: ptr0 for
// record 0, ptrs[i-1] for the others. An empty payload has a nil pointer and
// pins nothing. Record 0's pointer lives here so that the column fits its
// size class: an array of pointers over 512 bytes carries an 8-byte header,
// so the 1 536 pointers of a six-page block of 256-record pages would take a
// 13 568-byte block, and their 1 535 take the 12 288 the keys take.
type heldBatch struct {
	keys []Key
	ptr0 *byte
	ptrs []*byte
	lens []uint32
	size int
}

// hold enters a batch in the index in reference form, size being the
// length of every payload or -1: the batch writes no byte, so each page's
// offset is where its disk's bytes end, which is also where the encoded
// page before it on that disk ends. The caller holds r.wmu, and offsets is
// the batch's share of r.offsets' spare capacity; the batch has a record.
func (r *pagedRun) hold(first int, offsets []int64, pages []Page, size int) {
	total := 0
	for _, pg := range pages {
		total += len(pg)
	}
	keys, ptrs := make([]Key, total), make([]*byte, total-1)
	var ptr0 *byte
	var lens []uint32
	if size < 0 {
		lens = make([]uint32, total)
	}
	i := 0
	for _, pg := range pages {
		for _, rec := range pg {
			keys[i] = rec.Key
			switch {
			case len(rec.Payload) == 0:
			case i == 0:
				ptr0 = unsafe.SliceData(rec.Payload)
			default:
				ptrs[i-1] = unsafe.SliceData(rec.Payload)
			}
			if lens != nil {
				lens[i] = uint32(len(rec.Payload))
			}
			i++
		}
	}
	b := &heldBatch{keys: keys, ptr0: ptr0, ptrs: ptrs, lens: lens, size: size}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.held = slices.Grow(r.held, first+len(pages)-len(r.held))
	r.held = append(r.held, make([]heldPage, first-len(r.held))...)
	at := 0
	for i, pg := range pages {
		offsets[i] = r.exts[(first+i)%len(r.exts)].end
		r.held = append(r.held, heldPage{b: b, lo: at, hi: at + len(pg)})
		at += len(pg)
	}
	r.offsets = r.offsets[:first+len(pages)]
}

// records rebuilds the page into dst's array, each payload capped at its
// length so that an append to it cannot reach the caller's next bytes.
func (h heldPage) records(dst Page) Page {
	keys, ptr0, ptrs, lens, size := h.b.keys, h.b.ptr0, h.b.ptrs, h.b.lens, h.b.size
	dst = slices.Grow(dst[:0], h.hi-h.lo)
	for i := h.lo; i < h.hi; i++ {
		p, n := ptr0, size
		if i > 0 {
			p = ptrs[i-1]
		}
		if lens != nil {
			n = int(lens[i])
		}
		dst = append(dst, Record{Key: keys[i], Payload: unsafe.Slice(p, n)})
	}
	return dst
}

// writeBatch lands one encoded batch at off, retrying transient failures
// per the store's policy. A positional write retry overwrites whatever a
// torn earlier attempt left behind, so retries are idempotent. The
// returned error, if any, is terminal and wraps ErrStoreFailed plus the
// last cause.
func (s *pagedStore) writeBatch(r *pagedRun, x *runExtent, off int64, buf []byte) (retries int, err error) {
	budget := s.retry.attempts()
	for attempt := 1; ; attempt++ {
		err = writeOnce(x, off, buf)
		if err == nil {
			return retries, nil
		}
		if permanentIOErr(err) || attempt >= budget || r.isClosing() {
			return retries, fmt.Errorf("%w: write of %d bytes at %d (attempt %d/%d): %w",
				ErrStoreFailed, len(buf), off, attempt, budget, err)
		}
		retries++
		if d := s.retry.backoff(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// writeOnce performs one physical write attempt, routed through the disk's
// fault hooks when installed. A hook-injected torn write lands its partial
// bytes for real, so the rollback truncate and retry overwrite are
// exercised against genuine on-disk state.
func writeOnce(x *runExtent, off int64, buf []byte) error {
	if h := x.disk.faults; h != nil {
		if short, err := h.BeforeWrite(off, buf); err != nil {
			if short > 0 {
				_, _ = x.dev.WriteAt(buf[:min(short, len(buf))], off)
			}
			return err
		}
	}
	_, err := x.dev.WriteAt(buf, off)
	return err
}

// isClosing reports whether the run is being torn down — retry loops check
// it between attempts so Free/Close never waits out a backoff schedule.
func (r *pagedRun) isClosing() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closing
}

// ReadAsync validates the read of one page, notes its extent and returns
// immediately. The read runs when the token is first waited for, on the
// waiter's goroutine — or, when the page's disk has been slow of late, on a
// goroutine started here, so that the caller's other work overlaps it.
// Either way it is bounded by that disk's read concurrency. Only pages in the
// index can be asked for, and those are written.
func (s *pagedStore) ReadAsync(id RunID, page int) PageToken {
	h, err := s.issue(id, page)
	if err != nil {
		return refusedRead{err: err}
	}
	return h
}

// issue is ReadAsync without the boxing: the read's handle, or why it is
// refused.
func (s *pagedStore) issue(id RunID, page int) (readHandle, error) {
	r, freed := s.run(id)
	if r == nil {
		if freed {
			return readHandle{}, fmt.Errorf("masort: read of freed run %d", id)
		}
		return readHandle{}, fmt.Errorf("masort: run %d has no page %d", id, page)
	}
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return readHandle{}, fmt.Errorf("masort: read of freed run %d", id)
	}
	if werr := r.werr; werr != nil {
		// The run is broken: even its written prefix must not be served, or
		// a merge would consume half a run and only then learn it failed.
		r.mu.Unlock()
		return readHandle{}, fmt.Errorf("masort: read of run %d page %d after write failure: %w", id, page, werr)
	}
	if page < 0 || page >= len(r.offsets) {
		r.mu.Unlock()
		return readHandle{}, fmt.Errorf("masort: run %d has no page %d", id, page)
	}
	if page < len(r.held) && r.held[page].b != nil {
		held := r.held[page]
		r.mu.Unlock()
		// A read that is complete at issue: its frame goes back to the store
		// like any other's.
		fr := s.frames.get()
		fr.recs = held.records(fr.recs)
		return s.newRead(r, id, page, 0, 0, fr, readDone), nil
	}
	// The page's extent ends where the disk's next page begins.
	n := len(r.exts)
	x := &r.exts[page%n]
	off, end := r.offsets[page], x.end
	if page+n < len(r.offsets) {
		end = r.offsets[page+n]
	}
	dispatch := x.disk.slow()
	if dispatch {
		r.readers.Add(1) // here, so that Free waits for the goroutine
	}
	r.mu.Unlock()
	if !dispatch {
		return s.newRead(r, id, page, off, end, frame{}, readUnclaimed), nil
	}
	h := s.newRead(r, id, page, off, end, frame{}, readRunning)
	s.dispatchedReads.Add(1)
	go s.readPage(h.t, true)
	return h, nil
}

// newRead sets a token from the free list up as the read of one page, in
// the given state, and returns its handle.
func (s *pagedStore) newRead(r *pagedRun, id RunID, page int, off, end int64, fr frame, state uint32) readHandle {
	t := s.frames.token()
	t.s, t.r, t.id, t.page, t.off, t.end = s, r, id, page, off, end
	t.fr, t.err, t.retries, t.done = fr, nil, 0, nil
	t.state.Store(state)
	return readHandle{t, t.gen.Load()}
}

// readPage is the read: the only code that fetches and decodes a page,
// called by the Wait that claimed the token or as the reader goroutine
// ReadAsync started (counted, then, among the run's running reads already).
// Its deferred finish is the last it does with tok, which may be another
// read's as soon as it is done: the disk's read slot goes back before it,
// and the run's count of running reads after it, through readPage's locals.
func (s *pagedStore) readPage(tok *pageToken, counted bool) {
	r, id, page, off, end := tok.r, tok.id, tok.page, tok.off, tok.end
	x := &r.exts[page%len(r.exts)]
	defer func() {
		tok.finish()
		if counted {
			r.readers.Done()
		}
	}()
	// The page's bytes are in the file: it was in the index when the token
	// was issued. A write failure anywhere in the run since then fails this
	// read all the same — the run is broken and must not be half-consumed —
	// and a run freed since fails it before its removed files are touched.
	r.mu.Lock()
	switch {
	case r.werr != nil:
		err := r.werr
		r.mu.Unlock()
		tok.err = fmt.Errorf("masort: read of run %d page %d after write failure: %w", id, page, err)
		return
	case r.closing:
		r.mu.Unlock()
		tok.err = fmt.Errorf("masort: read of freed run %d", id)
		return
	}
	if !counted {
		r.readers.Add(1) // under mu with closing unset: teardown waits for us
		counted = true
	}
	r.mu.Unlock()

	x.disk.readSem <- struct{}{}
	defer func() { <-x.disk.readSem }()

	budget := s.retry.attempts()
	ioAttempt, rereads := 0, 0
	for {
		fr, err := s.readOnce(x, off, int(end-off))
		if err == nil {
			tok.fr = fr
			return
		}
		if errors.Is(err, ErrCorruptPage) {
			// Corruption gets exactly one re-read, whatever the retry
			// policy: the bytes may have been mangled in transit (bus,
			// controller, injected bit rot), in which case a second read
			// heals it. A second mismatch means the medium itself is bad.
			if rereads < 1 && !r.isClosing() {
				rereads++
				tok.retries++
				continue
			}
			tok.err = fmt.Errorf("masort: read run %d page %d: %w", id, page, err)
			return
		}
		ioAttempt++
		if !permanentIOErr(err) && ioAttempt < budget && !r.isClosing() {
			tok.retries++
			if d := s.retry.backoff(ioAttempt); d > 0 {
				time.Sleep(d)
			}
			continue
		}
		tok.err = fmt.Errorf("masort: read run %d page %d (attempt %d/%d): %w: %w",
			id, page, ioAttempt, budget, ErrStoreFailed, err)
		return
	}
}

// readOnce performs one physical fetch-and-decode attempt of the n-byte
// page extent at off, into a frame from the free list; the decoded page is
// the returned frame's recs. Bytes read into memory live in a pooled raw
// buffer for the length of this call and are decoded by copy: the payloads
// move to the frame's arena and the raw buffer is back in the pool on every
// path out, so nothing a reader holds aliases it. A device's view is decoded
// in place — unless fault hooks are installed: they see a private copy, in
// a raw buffer like any other, so injected corruption never mutates the
// view. A decode or checksum failure returns an error wrapping
// ErrCorruptPage; a fetch failure returns the raw cause for the caller to
// classify. Either way the frame of a failed attempt goes back on the list.
func (s *pagedStore) readOnce(x *runExtent, off int64, n int) (frame, error) {
	fr := s.frames.get()
	start := s.now()
	b, raw, err := x.dev.fetch(off, n, &s.bufs)
	if h := x.disk.faults; h != nil && err == nil {
		if raw == nil {
			raw = s.bufs.getBuf()
			raw.b = append(raw.b[:0], b...)
			b = raw.b
		}
		err = h.AfterRead(off, b)
	}
	x.disk.noteFetch(s.now().Sub(start))
	if err == nil {
		var (
			pg   Page
			read int
		)
		if raw != nil {
			pg, fr.buf, read, err = pagecodec.DecodePageCopy(fr.recs, fr.buf, b)
		} else {
			pg, _, read, err = pagecodec.DecodePageInto(fr.recs, b)
		}
		if err == nil && read != len(b) {
			err = fmt.Errorf("page extent is %d bytes, decoded %d", len(b), read)
		}
		if err != nil {
			err = fmt.Errorf("decode of %d-byte extent: %w: %w", len(b), ErrCorruptPage, err)
		} else {
			fr.recs = pg
		}
	}
	if raw != nil {
		s.bufs.putBuf(raw)
	}
	if err != nil {
		s.frames.put(&fr, true)
	}
	return fr, err
}

// Pages returns the number of pages written so far.
func (s *pagedStore) Pages(id RunID) int {
	r, _ := s.run(id)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.offsets)
}

// Free removes a run and its files, after any Append and reads of it that
// are running.
func (s *pagedStore) Free(id RunID) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		freed := s.freed(id)
		s.mu.Unlock()
		if freed {
			return fmt.Errorf("masort: double free of run %d", id)
		}
		return fmt.Errorf("masort: free of unknown run %d", id)
	}
	delete(s.runs, id)
	s.mu.Unlock()
	return s.teardownRun(r)
}

// teardownRun quiesces a run and deletes its files: new work is refused, an
// Append in progress finishes (its retry loop sees closing and gives up),
// running reads finish, and only then are the extents removed — every one of
// them even if an earlier removal fails, so an owned store directory can
// still be emptied.
func (s *pagedStore) teardownRun(r *pagedRun) error {
	r.mu.Lock()
	r.closing = true
	r.mu.Unlock()
	r.wmu.Lock() // an Append that got in before closing was set
	r.wmu.Unlock()
	r.readers.Wait()
	var first error
	for i := range r.exts {
		if err := r.exts[i].dev.remove(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Live returns the number of unfreed runs.
func (s *pagedStore) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Close frees every run and removes the directories the store created
// itself.
func (s *pagedStore) Close() error {
	s.mu.Lock()
	runs := make([]*pagedRun, 0, len(s.runs))
	for id, r := range s.runs {
		runs = append(runs, r)
		delete(s.runs, id)
	}
	s.mu.Unlock()
	var first error
	for _, r := range runs {
		if err := s.teardownRun(r); err != nil && first == nil {
			first = err
		}
	}
	if err := s.removeOwnedDirs(); err != nil && first == nil {
		first = err
	}
	return first
}
