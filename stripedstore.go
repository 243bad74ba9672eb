package masort

// StripedStore is a FileStore spread over N directories — ideally one per
// physical device — the real-engine twin of the paper's multi-disk Disks
// experiment. Every run has a file on each device and its pages are dealt
// round-robin — page i lands on device i mod N, across batch boundaries — so
// consecutive pages sit on different disks and one run's write bandwidth is
// the sum of its devices'.
//
// Each device has its own read concurrency bound and fault hooks. Append
// writes each device's share of the batch in turn, one positional write a
// device, and enters the batch in the page index once every device has its
// share: Pages never counts a page some device has yet to write.
//
// Failure semantics are FileStore's at run granularity: when any device's
// write fails terminally, the whole striped run is broken — the failing
// device is cut back to where the batch began, what healthy devices already
// took of the batch stays unindexed and unreachable, the batch's token
// reports the ErrStoreFailed chain, and subsequent Appends and reads of the
// run, on any device, are refused.
//
// Build one with StoreConfig.Striped (or NewStripedStore for the default
// config). Per-device fault injection for tests goes through
// StoreConfig.WithDeviceFaults.
//
// Each live run holds one open file per device, so a striped store uses N
// times the descriptors of a single FileStore. Sorts whose budget is tiny
// relative to the input can produce tens of thousands of runs; there,
// raise the process fd limit, grow the budget, or stripe less widely.
type StripedStore struct{ *pagedStore }

// NewStripedStore creates a striped run store over the given directories
// with the default configuration (see NewStoreConfig); an empty directory
// string makes that device a fresh temporary directory removed on Close.
// Use StoreConfig.Striped to configure retries or faults.
func NewStripedStore(dirs ...string) (*StripedStore, error) {
	return NewStoreConfig().Striped(dirs...)
}

// Devices returns the number of devices (directories) the store stripes
// over.
func (s *StripedStore) Devices() int { return len(s.disks) }

// Dirs returns the directory of each device, in device order.
func (s *StripedStore) Dirs() []string {
	dirs := make([]string, len(s.disks))
	for i := range s.disks {
		dirs[i] = s.disks[i].dir
	}
	return dirs
}
