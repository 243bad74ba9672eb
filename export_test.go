package masort

import "fmt"

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
