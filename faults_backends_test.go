package masort

import (
	"context"
	"errors"
	"runtime"
	"syscall"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/faultinject"
)

// The PR 8 fault discipline, re-run against the PR 9 backends: the
// fault-schedule table and the randomized soak must hold for StripedStore
// (per-device fault targeting included), MmapStore and TieredStore (faults
// landing mid-demotion included) exactly as they do for FileStore — correct
// output or a documented sentinel chain, and nothing leaked either way.

// backendCase builds one faulty store for the schedule/soak harnesses. The
// returned leak func reports still-live runs after the sort is closed.
type backendCase struct {
	name  string
	build func(t *testing.T, h FaultHooks, policy RetryPolicy) (RunStore, func() int, func() error)
}

func faultBackends() []backendCase {
	return []backendCase{
		{
			name: "striped",
			build: func(t *testing.T, h FaultHooks, policy RetryPolicy) (RunStore, func() int, func() error) {
				s, err := NewStoreConfig().WithFaults(h).WithRetry(policy).
					Striped(t.TempDir(), t.TempDir(), t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return s, s.Live, s.Close
			},
		},
		{
			name: "mmap",
			build: func(t *testing.T, h FaultHooks, policy RetryPolicy) (RunStore, func() int, func() error) {
				s, err := NewStoreConfig().WithFaults(h).WithRetry(policy).Mmap(t.TempDir())
				if errors.Is(err, ErrMmapUnsupported) {
					t.Skip("mmap not supported on this platform")
				}
				if err != nil {
					t.Fatal(err)
				}
				return s, s.Live, s.Close
			},
		},
		{
			name: "tiered",
			build: func(t *testing.T, h FaultHooks, policy RetryPolicy) (RunStore, func() int, func() error) {
				backing, err := NewStoreConfig().WithFaults(h).WithRetry(policy).File(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				// A 4-page tier against a 64-page input: most runs demote, so
				// the injected faults land mid-demotion and on promote reads.
				s, err := NewTieredStore(4, backing)
				if err != nil {
					t.Fatal(err)
				}
				live := func() int { return s.Live() + backing.Live() }
				closeAll := func() error {
					err := s.Close()
					if berr := backing.Close(); err == nil {
						err = berr
					}
					return err
				}
				return s, live, closeAll
			},
		},
	}
}

// TestSortFaultSchedulesNewBackends runs the scripted fault-schedule table
// through pooled sorts over StripedStore, MmapStore and TieredStore.
// Retry-count assertions exempt tiered: a tiered store consumes its backing
// tokens inside the demotion path, so backing retries are invisible to
// Stats.
func TestSortFaultSchedulesNewBackends(t *testing.T) {
	recs := faultSortInput(4096)
	policy := RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
	cases := []struct {
		name        string
		rules       []faultinject.Rule
		wantErr     []error
		wantRetries bool // not asserted for tiered
	}{
		{
			name: "transient-read",
			rules: []faultinject.Rule{{Op: faultinject.Read, Nth: 2, Count: 1,
				Fault: faultinject.Fault{Err: faultinject.Transient("read blip")}}},
			wantRetries: true,
		},
		{
			name: "transient-write",
			rules: []faultinject.Rule{{Op: faultinject.Write, Nth: 1, Count: 1,
				Fault: faultinject.Fault{Err: faultinject.Transient("write blip")}}},
			wantRetries: true,
		},
		{
			name: "short-write",
			rules: []faultinject.Rule{{Op: faultinject.Write, Nth: 1, Count: 1,
				Fault: faultinject.Fault{Err: faultinject.Transient("torn"), Short: 7}}},
			wantRetries: true,
		},
		{
			name: "permanent-write",
			rules: []faultinject.Rule{{Op: faultinject.Write, Nth: 2,
				Fault: faultinject.Fault{Err: faultinject.Permanent("controller gone")}}},
			wantErr: []error{ErrStoreFailed},
		},
		{
			name: "enospc",
			rules: []faultinject.Rule{{Op: faultinject.Write, Nth: 2,
				Fault: faultinject.Fault{Err: syscall.ENOSPC}}},
			wantErr: []error{ErrStoreFailed, syscall.ENOSPC},
		},
		{
			name: "bit-flip-persistent",
			rules: []faultinject.Rule{{Op: faultinject.Read, Every: 1,
				Fault: faultinject.Fault{FlipBit: 7}}},
			wantErr: []error{ErrCorruptPage},
		},
	}
	for _, backend := range faultBackends() {
		for _, tc := range cases {
			t.Run(backend.name+"/"+tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				inj := faultinject.New(tc.rules...)
				store, live, closeStore := backend.build(t, inj, policy)
				pool := NewPool(8)
				res, err := Sort(context.Background(), NewSliceIterator(recs),
					WithStore(store), WithPool(pool), WithPageRecords(64), WithEventLog(256))
				if len(tc.wantErr) > 0 {
					if err == nil {
						res.Close()
						t.Fatalf("sort succeeded under a terminal fault schedule (%v)", inj)
					}
					for _, sentinel := range tc.wantErr {
						if !errors.Is(err, sentinel) {
							t.Errorf("error chain %v is missing %v", err, sentinel)
						}
					}
				} else {
					if err != nil {
						t.Fatalf("sort failed under a recoverable schedule: %v (%v)", err, inj)
					}
					var prev uint64
					n := 0
					for rec, rerr := range res.All() {
						if rerr != nil {
							t.Fatalf("record %d: %v", n, rerr)
						}
						if n > 0 && rec.Key < prev {
							t.Fatalf("output out of order at record %d", n)
						}
						prev = rec.Key
						n++
					}
					if n != len(recs) {
						t.Fatalf("drained %d records, want %d", n, len(recs))
					}
					if backend.name != "tiered" && tc.wantRetries && res.Stats.StoreRetries == 0 {
						t.Error("Stats.StoreRetries = 0, want > 0")
					}
					if err := res.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if pool.Ops() != 0 || pool.Reserved() != 0 {
					t.Fatalf("pool leaked: %d ops, %d reserved pages", pool.Ops(), pool.Reserved())
				}
				if n := live(); n != 0 {
					t.Fatalf("%d runs leaked", n)
				}
				if err := closeStore(); err != nil {
					t.Fatal(err)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestSortFaultSoakNewBackends is the randomized seeded soak over the new
// backends: any mix of transient, permanent and corrupting faults must end
// in correct output or a documented sentinel — never wrong data, never a
// leak. Run under -race; seeds are fixed so failures reproduce.
func TestSortFaultSoakNewBackends(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	recs := faultSortInput(2048)
	prof := faultinject.Profile{
		PTransientRead:  0.05,
		PTransientWrite: 0.05,
		PPermanentWrite: 0.02,
		PBitFlip:        0.03,
		PShortWrite:     0.5,
	}
	for _, backend := range faultBackends() {
		t.Run(backend.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				inj := faultinject.NewSeeded(seed, prof)
				store, live, closeStore := backend.build(t, inj,
					RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond})
				pool := NewPool(8)
				okErr := func(err error) bool {
					return errors.Is(err, ErrStoreFailed) || errors.Is(err, ErrCorruptPage)
				}
				res, err := Sort(context.Background(), NewSliceIterator(recs),
					WithStore(store), WithPool(pool), WithPageRecords(32), WithEventLog(64))
				switch {
				case err != nil:
					if !okErr(err) {
						t.Fatalf("seed %d: unexpected error class: %v (%v)", seed, err, inj)
					}
				default:
					var prev uint64
					n := 0
					for rec, rerr := range res.All() {
						if rerr != nil {
							if !okErr(rerr) {
								t.Fatalf("seed %d: unexpected iteration error: %v", seed, rerr)
							}
							break
						}
						if n > 0 && rec.Key < prev {
							t.Fatalf("seed %d: output out of order at record %d", seed, n)
						}
						prev = rec.Key
						n++
					}
					if err := res.Close(); err != nil {
						t.Fatalf("seed %d: close: %v", seed, err)
					}
				}
				if pool.Ops() != 0 || pool.Reserved() != 0 {
					t.Fatalf("seed %d: pool leaked: %d ops, %d reserved", seed, pool.Ops(), pool.Reserved())
				}
				if n := live(); n != 0 {
					t.Fatalf("seed %d: %d runs leaked", seed, n)
				}
				if err := closeStore(); err != nil {
					t.Fatalf("seed %d: store close: %v", seed, err)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// TestSortFaultStripedDeviceTargeted scopes a fault to ONE stripe of a
// pooled sort's striped store: a permanently failing device sinks the sort
// with the documented chain, while a merely transient device heals
// invisibly — the per-device fault seam the paper's multi-disk setup needs.
func TestSortFaultStripedDeviceTargeted(t *testing.T) {
	recs := faultSortInput(4096)
	cases := []struct {
		name    string
		hooks   func(dev int) FaultHooks
		wantErr []error
	}{
		{
			name: "one-device-dies",
			hooks: func(dev int) FaultHooks {
				if dev != 1 {
					return nil
				}
				return faultinject.New(faultinject.Rule{Op: faultinject.Write, Nth: 2,
					Fault: faultinject.Fault{Err: faultinject.Permanent("device 1 gone")}})
			},
			wantErr: []error{ErrStoreFailed},
		},
		{
			name: "one-device-flaky",
			hooks: func(dev int) FaultHooks {
				if dev != 2 {
					return nil
				}
				return faultinject.New(faultinject.Rule{Op: faultinject.Write, Nth: 1, Count: 2,
					Fault: faultinject.Fault{Err: faultinject.Transient("device 2 blip")}})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			store, err := NewStoreConfig().
				WithDeviceFaults(tc.hooks).
				WithRetry(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}).
				Striped(t.TempDir(), t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(8)
			// WithEventLog also arms the traced store, which is what folds
			// token retry counts into Stats.StoreRetries.
			res, err := Sort(context.Background(), NewSliceIterator(recs),
				WithStore(store), WithPool(pool), WithPageRecords(64), WithEventLog(256))
			if len(tc.wantErr) > 0 {
				if err == nil {
					res.Close()
					t.Fatal("sort survived a permanently failing device")
				}
				for _, sentinel := range tc.wantErr {
					if !errors.Is(err, sentinel) {
						t.Errorf("error chain %v is missing %v", err, sentinel)
					}
				}
			} else {
				if err != nil {
					t.Fatalf("sort failed with only a transient device fault: %v", err)
				}
				n := 0
				var prev uint64
				for rec, rerr := range res.All() {
					if rerr != nil {
						t.Fatalf("record %d: %v", n, rerr)
					}
					if n > 0 && rec.Key < prev {
						t.Fatalf("output out of order at record %d", n)
					}
					prev = rec.Key
					n++
				}
				if n != len(recs) {
					t.Fatalf("drained %d records, want %d", n, len(recs))
				}
				if res.Stats.StoreRetries == 0 {
					t.Error("Stats.StoreRetries = 0, want > 0 (the flaky device retried)")
				}
				if err := res.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if pool.Ops() != 0 || pool.Reserved() != 0 {
				t.Fatalf("pool leaked: %d ops, %d reserved", pool.Ops(), pool.Reserved())
			}
			if store.Live() != 0 {
				t.Fatalf("%d runs leaked", store.Live())
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestSortFaultStripedParallel re-runs the PR 8 fault discipline against a
// PARALLEL sort (WithWorkers) on the striped store: injected device faults
// now land on I/O issued concurrently by several workers, and the same
// contract must hold — correct output or a documented sentinel chain, and
// nothing leaked either way.
func TestSortFaultStripedParallel(t *testing.T) {
	recs := faultSortInput(8192)
	policy := RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
	cases := []struct {
		name        string
		hooks       func(dev int) FaultHooks
		wantErr     []error
		wantRetries bool
	}{
		{
			name: "transient-blips-two-devices",
			hooks: func(dev int) FaultHooks {
				if dev == 0 {
					return faultinject.New(faultinject.Rule{Op: faultinject.Write, Nth: 1, Count: 2,
						Fault: faultinject.Fault{Err: faultinject.Transient("dev0 write blip")}})
				}
				if dev == 2 {
					return faultinject.New(faultinject.Rule{Op: faultinject.Read, Nth: 2, Count: 2,
						Fault: faultinject.Fault{Err: faultinject.Transient("dev2 read blip")}})
				}
				return nil
			},
			wantRetries: true,
		},
		{
			name: "one-device-dies-mid-sort",
			hooks: func(dev int) FaultHooks {
				if dev != 1 {
					return nil
				}
				return faultinject.New(faultinject.Rule{Op: faultinject.Write, Nth: 3,
					Fault: faultinject.Fault{Err: faultinject.Permanent("device 1 gone")}})
			},
			wantErr: []error{ErrStoreFailed},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			store, err := NewStoreConfig().
				WithDeviceFaults(tc.hooks).
				WithRetry(policy).
				Striped(t.TempDir(), t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(32)
			res, err := Sort(context.Background(), NewSliceIterator(recs),
				WithStore(store), WithPool(pool), WithWorkers(4),
				WithPageRecords(64), WithEventLog(256))
			if len(tc.wantErr) > 0 {
				if err == nil {
					res.Close()
					t.Fatal("parallel sort survived a permanently failing device")
				}
				for _, sentinel := range tc.wantErr {
					if !errors.Is(err, sentinel) {
						t.Errorf("error chain %v is missing %v", err, sentinel)
					}
				}
			} else {
				if err != nil {
					t.Fatalf("parallel sort failed under a recoverable schedule: %v", err)
				}
				if res.Stats.Workers != 4 {
					t.Errorf("Stats.Workers = %d, want 4", res.Stats.Workers)
				}
				var prev uint64
				n := 0
				for rec, rerr := range res.All() {
					if rerr != nil {
						t.Fatalf("record %d: %v", n, rerr)
					}
					if n > 0 && rec.Key < prev {
						t.Fatalf("output out of order at record %d", n)
					}
					prev = rec.Key
					n++
				}
				if n != len(recs) {
					t.Fatalf("drained %d records, want %d", n, len(recs))
				}
				if tc.wantRetries && res.Stats.StoreRetries == 0 {
					t.Error("Stats.StoreRetries = 0, want > 0")
				}
				if err := res.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if pool.Ops() != 0 || pool.Reserved() != 0 {
				t.Fatalf("pool leaked: %d ops, %d reserved", pool.Ops(), pool.Reserved())
			}
			if store.Live() != 0 {
				t.Fatalf("%d runs leaked", store.Live())
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}
