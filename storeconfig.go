package masort

import (
	"fmt"
	"time"

	"github.com/memadapt/masort/trace"
)

// StoreConfig is the one configuration consumed by every run-store backend:
// FileStore, StripedStore, MmapStore and TieredStore all read the same
// knobs (retry policy, fault hooks, tracer), so adding a backend never
// re-grows a parallel option set.
//
// It is a builder: the With* methods mutate the receiver and return it, so
// configuration chains into a terminal constructor —
//
//	store, err := masort.NewStoreConfig().
//		WithRetry(masort.RetryPolicy{MaxAttempts: 3}).
//		WithTracer(metrics).
//		Striped("/mnt/d0/runs", "/mnt/d1/runs")
//
// One StoreConfig may build any number of stores (each constructor snapshots
// the relevant fields), but it is not safe for concurrent mutation.
type StoreConfig struct {
	retry  RetryPolicy
	faults func(device int) FaultHooks
	tr     trace.Tracer
}

// NewStoreConfig returns the default store configuration: no retry, no
// fault hooks, no tracer.
func NewStoreConfig() *StoreConfig { return &StoreConfig{} }

// RetryPolicy bounds how a disk-backed store retries transiently failing
// I/O. Backoff between the attempts of one operation doubles each time —
// Backoff, 2*Backoff, 4*Backoff, ... — with no jitter, so fault-injection
// tests are exactly reproducible.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per operation (first try
	// included). Values below 1 mean a single attempt, i.e. no retry.
	MaxAttempts int

	// Backoff is the delay before the first retry; zero retries
	// immediately.
	Backoff time.Duration
}

// attempts returns the per-operation attempt budget.
func (p RetryPolicy) attempts() int {
	return max(p.MaxAttempts, 1)
}

// backoff returns the delay before retrying after the attempt-th failure
// (1-based): Backoff doubled per failed attempt, jitter-free.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	// Clamp the shift; nobody backs off for 2^30 periods.
	return p.Backoff << (min(attempt, 1+30) - 1)
}

// FaultHooks intercepts a disk-backed store's physical I/O for
// deterministic fault injection (see internal/faultinject for the
// scriptable implementation). The hooks run where the I/O does: BeforeWrite
// on the goroutine that called Append — a hook that blocks blocks that
// Append, and with it Free and Close of the run — and AfterRead on whoever
// runs the read, the goroutine waiting for the page or a reader the store
// started for it. Implementations must be safe for concurrent use: appends
// to different runs and any number of reads overlap.
type FaultHooks interface {
	// BeforeWrite is consulted before each write attempt of an encoded
	// batch at off. Returning a non-nil error fails the attempt; when
	// short > 0 the store first lands the leading short bytes — a torn
	// write, so rollback and retry paths see real partial data on disk.
	BeforeWrite(off int64, b []byte) (short int, err error)

	// AfterRead is consulted after each read attempt has fetched b and may
	// fail the attempt or mutate b in place (bit rot for the checksum layer
	// to catch).
	AfterRead(off int64, b []byte) error
}

// WithRetry sets the retry policy for transiently failing I/O: each read
// attempt and each write attempt gets p.MaxAttempts tries with doubling
// backoff before the operation fails with ErrStoreFailed in the chain.
// Permanent errors (ENOSPC, EROFS, anything reporting Temporary() == false)
// skip the retries and fail fast. The default is a single attempt.
func (c *StoreConfig) WithRetry(p RetryPolicy) *StoreConfig {
	c.retry = p
	return c
}

// WithFaults installs fault-injection hooks on the physical I/O of every
// device of the built store. Meant for tests (see internal/faultinject); a
// nil hook leaves the I/O untouched.
func (c *StoreConfig) WithFaults(h FaultHooks) *StoreConfig {
	c.faults = func(int) FaultHooks { return h }
	return c
}

// WithDeviceFaults installs per-device fault-injection hooks: fn is invoked
// with each device index (0-based; single-device backends use device 0) and
// returns the hooks for that device, or nil to leave it untouched. This is
// how tests target one stripe of a StripedStore while the others stay
// healthy.
func (c *StoreConfig) WithDeviceFaults(fn func(device int) FaultHooks) *StoreConfig {
	c.faults = fn
	return c
}

// WithTracer attaches a tracer to the built store: the retry loops emit
// KindStoreRetry / KindStoreGaveUp, and a TieredStore emits
// KindStoreDemote / KindStorePromote as runs spill and pages come back hot.
// Per-read and per-write latency events are emitted by the operator's
// WithTracer layer, not here, so they can be attributed to the operator.
func (c *StoreConfig) WithTracer(t Tracer) *StoreConfig {
	c.tr = t
	return c
}

// faultsAt returns the fault hooks for one device (nil when none are
// configured for it).
func (c *StoreConfig) faultsAt(device int) FaultHooks {
	if c.faults == nil {
		return nil
	}
	return c.faults(device)
}

// File builds a disk-backed FileStore in dir; dir is created if missing.
// If dir is empty, a fresh temporary directory is used and removed on
// Close. See FileStore for the backend's semantics.
func (c *StoreConfig) File(dir string) (*FileStore, error) {
	s, err := newPagedStore(c, []string{dir}, openFileDevice)
	if err != nil {
		return nil, err
	}
	return &FileStore{s}, nil
}

// Striped builds a StripedStore over one directory per device — ideally
// each on its own disk or filesystem. See StripedStore.
func (c *StoreConfig) Striped(dirs ...string) (*StripedStore, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("masort: striped store needs at least one directory")
	}
	s, err := newPagedStore(c, dirs, openFileDevice)
	if err != nil {
		return nil, err
	}
	return &StripedStore{s}, nil
}

// Mmap builds an mmap-backed MmapStore in dir (created if missing; a fresh
// temporary directory when empty, removed on Close). See MmapStore. On
// platforms without mmap support it fails with ErrMmapUnsupported.
func (c *StoreConfig) Mmap(dir string) (*MmapStore, error) {
	if !mmapSupported {
		return nil, ErrMmapUnsupported
	}
	s := &MmapStore{}
	var err error
	if s.pagedStore, err = newPagedStore(c, []string{dir}, s.openDevice); err != nil {
		return nil, err
	}
	return s, nil
}

// Tiered builds a TieredStore: a memory tier bounded to memPages pages that
// demotes whole runs to backing under pressure and promotes hot pages on
// read. The caller keeps ownership of backing (Close it after the tiered
// store). See TieredStore.
func (c *StoreConfig) Tiered(memPages int, backing RunStore) (*TieredStore, error) {
	if backing == nil {
		return nil, fmt.Errorf("masort: tiered store needs a backing store")
	}
	return &TieredStore{
		backing: backing,
		limit:   max(memPages, 0),
		tr:      c.tr,
		runs:    map[RunID]*tieredRun{},
	}, nil
}
