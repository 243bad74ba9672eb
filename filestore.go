package masort

import (
	"errors"
	"io/fs"
	"os"
	"slices"
	"strconv"
)

// FileStore is a disk-backed RunStore: each run is a file of checksummed
// page frames in each of the store's directories, with an in-memory page
// index per run.
//
// Over N directories — ideally one per physical device — it is the real
// engine's twin of the paper's multi-disk Disks experiment: a run's pages
// are dealt round-robin, page i to directory i mod N across batch
// boundaries, so consecutive pages sit on different disks and one run's
// write bandwidth is the sum of its devices'. Each device has its own read
// concurrency bound. Append writes each device's share of a batch in turn,
// one positional write a device, and enters the batch in the page index once
// every device has its share: Pages never counts a page some device has yet
// to write. Each live run holds one open file per device, so sorts whose
// budget is tiny relative to the input, which make tens of thousands of
// runs, may need a higher fd limit, a bigger budget or fewer directories.
// Every run file is created exclusively under a name of its own, so stores
// may share a directory, and one directory may be named twice.
//
// Append encodes the pages and writes them where it is called, one
// positional write a batch, and returns a completed Token: the pages are
// readable and the page slices may be reused (the store never retains them).
// The file is opened buffered and never synced, so a write returns once the
// kernel has the bytes — a copy into the page cache — and the kernel's
// write-back is what overlaps the disk with the sort; a write could wait for
// nothing the store can reach without fsync or O_DIRECT, so the store keeps
// no writer goroutine to wait for it. What a device whose buffered writes
// block would show (dirty-page throttling under memory pressure, a
// synchronous network mount) is unverified: there Append takes as long as
// the write does, and the kernel's queue is all the overlap there is.
//
// ReadAsync returns immediately with a token for the exact page extent; the
// positional read runs on the goroutine that first waits for the token — a
// cached file answers in less time than handing the read to somebody else
// takes — or, once the device's recent reads have taken longer than a
// hand-off costs (tens of microseconds), on a reader goroutine started at
// issue, so read-ahead and batched reads overlap a slow device. Either way
// at most eight reads run at once. The extent is read into
// a pooled raw buffer and decoded out of it by copy: the page's payloads
// land back to back in an arena of exactly their size, Record.Payload
// sub-slices that arena, and the raw buffer is back in the pool before the
// read returns — one copy of the payload bytes buys a read path whose
// encoded bytes never leave the store (see the package's buffer-ownership
// notes; MmapStore is the zero-copy store). A token's Release gives the
// whole frame, record array and arena, back for the next read;
// ReleaseRecords the record array only.
//
// The store does not assume a perfect disk: a page failing its
// CRC32-Castagnoli checksum is re-read once before the read fails with
// ErrCorruptPage in the chain, StoreConfig.WithRetry turns transient I/O
// errors into bounded retries with backoff, and errors that survive retry —
// or are permanent up front, like ENOSPC — wrap ErrStoreFailed. A write that
// fails terminally breaks the whole run, on every device: the failing file
// is cut back to where the batch began, what other devices already took of
// the batch stays unindexed, Pages stays where it was, and the batch's token
// and every subsequent Append and read of the run report the failure.
//
// Build one with StoreConfig.File.
type FileStore struct{ *pagedStore }

// fileDevice is a run file read with positional reads into a pooled raw buffer.
type fileDevice struct{ *os.File }

func openFileDevice(path string) (device, error) {
	f, err := createRunFile(path)
	if err != nil {
		return nil, err
	}
	return fileDevice{f}, nil
}

func (d fileDevice) fetch(off int64, n int, bufs *bufPool) ([]byte, *rawBuf, error) {
	raw := bufs.getBuf()
	raw.b = slices.Grow(raw.b[:0], n)[:n]
	_, err := d.ReadAt(raw.b, off)
	return raw.b, raw, err
}

func (d fileDevice) remove() error { return removeFile(d.File) }

// createRunFile creates a new run file exclusively: path itself, or, when
// that name is taken — by another store's run, or another device of this
// store over the same directory — the first free one of path.1, path.2, …
// A file it did not create is never opened.
func createRunFile(path string) (*os.File, error) {
	name := path
	for i := 1; ; i++ {
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
		name = path + "." + strconv.Itoa(i)
	}
}

// removeFile closes f and deletes it, even if the close fails.
func removeFile(f *os.File) error {
	err := f.Close()
	if rmErr := os.Remove(f.Name()); err == nil {
		err = rmErr
	}
	return err
}
