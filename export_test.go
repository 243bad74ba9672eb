package masort

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
)

// NewMemStoreWith builds a MemStore with retries or fault hooks,
// for the tests that inject faults into its device; the public constructor
// is NewMemStore, with the default configuration.
var NewMemStoreWith = newMemStore

// WaitGoroutines waits for the goroutine count to come back to a baseline,
// for the external tests' leak checks.
var WaitGoroutines = waitGoroutines

// Leftovers describes what a budget still holds — pages granted to
// operators, operators registered, pages reserved or promised to a
// reservation — or is "" when it holds nothing, for the leak checks run
// after Close.
func Leftovers(b *Budget) string {
	s := b.arb.Snapshot()
	granted := s.Total - s.Free - s.Reserved
	if granted == 0 && len(s.Targets) == 0 && s.Reserved == 0 && s.Pending == 0 {
		return ""
	}
	return fmt.Sprintf("%d pages granted, %d operators, %d pages reserved, %d promised", granted, len(s.Targets), s.Reserved, s.Pending)
}

// newFileStore and newMmapStore build the file-backed stores with the default
// configuration in one directory ("" is a fresh temporary one, removed on
// Close), for the tests that need no other.
func newFileStore(dir string) (*FileStore, error) { return NewStoreConfig().File(dir) }

func newMmapStore(dir string) (*MmapStore, error) { return NewStoreConfig().Mmap(dir) }

// storeDir returns the directory of a store's device dev.
func storeDir(s *pagedStore, dev int) string { return s.disks[dev].dir }

// runFile returns the path of run id's file on device dev of s, for the
// tests that look at a run's bytes on disk.
func runFile(s *pagedStore, id RunID, dev int) string {
	r, _ := s.run(id)
	return r.exts[dev].dev.(interface{ Name() string }).Name()
}

// withDeviceFaults installs per-device fault-injection hooks: fn is invoked
// with each device index (0-based; a store over one directory has device 0)
// and returns the hooks for that device, or nil to leave it untouched. This
// is how tests target one stripe of a FileStore over several directories
// while the others stay healthy.
func (c *StoreConfig) withDeviceFaults(fn func(device int) FaultHooks) *StoreConfig {
	c.faults = fn
	return c
}

// ResizeOnOps is the tests' one schedule keyed on page operations: it moves
// the memory's target through Cycle, one step every Every page operations
// (pages appended + reads issued), on the goroutine issuing the operation —
// never on wall-clock time — and, when CancelAt is set, calls Cancel at that
// page operation. Tokens pass through untouched, so Release stays visible
// to the engine. It counts from the moment it is armed.
type ResizeOnOps struct {
	RunStore
	Resize   func(pages int) // the owner's Resize
	Cycle    []int
	Every    int64
	CancelAt int64
	Cancel   context.CancelFunc
	armed    atomic.Bool
	ops      atomic.Int64
}

// Arm starts the count: operations before it move nothing.
func (s *ResizeOnOps) Arm() { s.armed.Store(true) }

func (s *ResizeOnOps) note(n int) {
	if !s.armed.Load() {
		return
	}
	after := s.ops.Add(int64(n))
	before := after - int64(n)
	if s.CancelAt > 0 && before < s.CancelAt && after >= s.CancelAt {
		s.Cancel()
	}
	if len(s.Cycle) > 0 && after/s.Every != before/s.Every {
		s.Resize(s.Cycle[(after/s.Every)%int64(len(s.Cycle))])
	}
}

func (s *ResizeOnOps) Append(id RunID, pages []Page) (Token, error) {
	s.note(len(pages))
	return s.RunStore.Append(id, pages)
}

func (s *ResizeOnOps) ReadAsync(id RunID, page int) PageToken {
	s.note(1)
	return s.RunStore.ReadAsync(id, page)
}

// ByKeyThenPayload is the oracle's order: Less as a three-way comparison,
// for slices.SortFunc.
func ByKeyThenPayload(a, b Record) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Payload, b.Payload)
}

// SortedCopy is the oracle: deep copies of recs, sorted by
// ByKeyThenPayload, so it never shares a byte with the store.
func SortedCopy(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = Record{Key: r.Key, Payload: bytes.Clone(r.Payload)}
	}
	slices.SortFunc(out, ByKeyThenPayload)
	return out
}

// SameRecords fails unless got is want, record for record, payloads
// included.
func SameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if ByKeyThenPayload(got[i], want[i]) != 0 {
			t.Fatalf("record %d = {%d %x}, want {%d %x}", i, got[i].Key, got[i].Payload, want[i].Key, want[i].Payload)
		}
	}
}
