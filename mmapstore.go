package masort

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrMmapUnsupported is returned by StoreConfig.Mmap on platforms without
// memory-mapped file support. Test with
//
//	errors.Is(err, masort.ErrMmapUnsupported)
//
// and fall back to a FileStore.
var ErrMmapUnsupported = errors.New("masort: mmap-backed store unsupported on this platform")

// MmapStore is a FileStore whose reads come straight out of a shared,
// read-only memory mapping of each run file: the page extent is decoded in
// place, so Record.Payload sub-slices the mapping itself — zero copies
// between the page cache and the merge heap. Paging hardware carries the
// read path (the Virtual-Memory Powersort observation): a hot page costs a
// memory access, a cold one a major fault instead of an explicit read
// syscall.
//
// Everything else — writes, which go through the file descriptor (the
// mapping is read-only), checksums, retries, fault hooks, failure
// semantics — is FileStore's. Injected read faults are applied to a private
// copy of the extent, so a transient bit flip heals on the mandatory
// re-read instead of mutating the mapping; the copy lives in a pooled raw
// buffer and is decoded like a file read, so with fault hooks installed
// payloads are copies, not aliases of the mapping.
//
// Buffer-ownership extension: pages returned by ReadAsync stay valid until
// the STORE is closed, not merely until the run is freed — Free unlinks
// the file but keeps its mappings alive, so zero-copy payloads held by a
// downstream merge never dangle. Close unmaps everything; do not retain
// records past it.
type MmapStore struct {
	*pagedStore

	mu      sync.Mutex
	retired [][]byte // outgrown mappings and those of freed runs, unmapped at Close
}

// Close frees every run, unmaps every mapping (created by reads of live
// and already-freed runs alike), and removes the directory if the store
// owns it. Records decoded from the store must not be used past Close.
func (s *MmapStore) Close() error {
	first := s.pagedStore.Close()
	s.mu.Lock()
	maps := s.retired
	s.retired = nil
	s.mu.Unlock()
	for _, m := range maps {
		if err := munmapBytes(m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *MmapStore) retire(m []byte) {
	if m == nil {
		return
	}
	s.mu.Lock()
	s.retired = append(s.retired, m)
	s.mu.Unlock()
}

// mmapDevice is a run file read through a mapping that is replaced, never
// unmapped, as the file grows: pages decoded from an older mapping may
// still be live, so the store retires every mapping until Close.
type mmapDevice struct {
	*os.File
	store *MmapStore

	mu   sync.Mutex
	data []byte // read-only shared mapping of [0, len(data))
}

func (s *MmapStore) openDevice(path string) (device, error) {
	f, err := createRunFile(path)
	if err != nil {
		return nil, err
	}
	return &mmapDevice{File: f, store: s}, nil
}

func (d *mmapDevice) fetch(off int64, n int, _ *bufPool) ([]byte, *rawBuf, error) {
	end := off + int64(n)
	d.mu.Lock()
	defer d.mu.Unlock()
	if int64(len(d.data)) < end {
		// The file grew past the mapping: map all of it as it stands now.
		fi, err := d.Stat()
		if err != nil {
			return nil, nil, err
		}
		if fi.Size() < end {
			return nil, nil, fmt.Errorf("run file is %d bytes, extent ends at %d", fi.Size(), end)
		}
		m, err := mmapFile(d.File, fi.Size())
		if err != nil {
			return nil, nil, err
		}
		d.store.retire(d.data)
		d.data = m
	}
	return d.data[off:end:end], nil, nil
}

// remove deletes the file; its mapping outlives it. No fetch is in flight
// by now — run teardown waits out the readers first.
func (d *mmapDevice) remove() error {
	d.store.retire(d.data)
	d.data = nil
	return removeFile(d.File)
}
