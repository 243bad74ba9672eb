package masort

import (
	"os"
	"slices"
)

// FileStore is a disk-backed RunStore: each run is one file of checksummed
// page frames in a directory, with an in-memory page index per run.
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
// fails terminally breaks the whole run: the file is cut back to where the
// batch began, Pages stays where it was, and the batch's token and every
// subsequent Append and read of the run report the failure.
//
// Build one with StoreConfig.File, or NewFileStore for the default
// configuration.
type FileStore struct{ *pagedStore }

// NewFileStore creates a run store in dir with the default configuration
// (see NewStoreConfig); dir is created if missing. If dir is empty, a fresh
// temporary directory is used and removed on Close.
func NewFileStore(dir string) (*FileStore, error) {
	return NewStoreConfig().File(dir)
}

// Dir returns the directory holding run files.
func (s *FileStore) Dir() string { return s.disks[0].dir }

// fileDevice is a run file read with positional reads into a pooled raw buffer.
type fileDevice struct{ *os.File }

func openFileDevice(path string) (device, error) {
	f, err := os.Create(path)
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

// removeFile closes f and deletes it, even if the close fails.
func removeFile(f *os.File) error {
	err := f.Close()
	if rmErr := os.Remove(f.Name()); err == nil {
		err = rmErr
	}
	return err
}
