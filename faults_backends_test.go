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

// The fault discipline of faults_test.go, re-run against the other
// backends: the fault-schedule table and the randomized soak must hold for
// MemStore, a FileStore over three directories ("striped", per-device fault
// targeting included) and MmapStore exactly as they do for a FileStore over
// one — correct output or a documented sentinel chain, and nothing leaked
// either way. On MemStore a torn write leaves a chunk the retry must
// replace, not follow.

// faultStore is a store the schedule/soak harnesses can audit for leaked
// runs after the sort is closed, and then close.
type faultStore interface {
	RunStore
	Live() int
	Close() error
}

// backendCase builds one faulty store for the schedule/soak harnesses.
type backendCase struct {
	name  string
	build func(t *testing.T, h FaultHooks, policy RetryPolicy) faultStore
}

func faultBackends() []backendCase {
	return []backendCase{
		{
			name: "mem",
			build: func(t *testing.T, h FaultHooks, policy RetryPolicy) faultStore {
				return newMemStore(NewStoreConfig().WithFaults(h).WithRetry(policy))
			},
		},
		{
			name: "striped",
			build: func(t *testing.T, h FaultHooks, policy RetryPolicy) faultStore {
				s, err := NewStoreConfig().WithFaults(h).WithRetry(policy).
					File(t.TempDir(), t.TempDir(), t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
		},
		{
			name: "mmap",
			build: func(t *testing.T, h FaultHooks, policy RetryPolicy) faultStore {
				s, err := NewStoreConfig().WithFaults(h).WithRetry(policy).Mmap(t.TempDir())
				if errors.Is(err, ErrMmapUnsupported) {
					t.Skip("mmap not supported on this platform")
				}
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
		},
	}
}

// TestStoreRetriesWithoutATracer pins that Stats.StoreRetries is the
// engine's count, not a tracer's: a sort whose reads fail transiently
// reports one retry per injected fault untraced, and the same count traced
// (WithEventLog wraps the store in the traced store), on FileStore and on
// the faulty MemStore.
func TestStoreRetriesWithoutATracer(t *testing.T) {
	recs := faultSortInput(4096)
	for _, backend := range []struct {
		name string
		open func(t *testing.T, cfg *StoreConfig) faultStore
	}{
		{"file", func(t *testing.T, cfg *StoreConfig) faultStore {
			s, err := cfg.File(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"mem", func(_ *testing.T, cfg *StoreConfig) faultStore { return NewMemStoreWith(cfg) }},
	} {
		t.Run(backend.name, func(t *testing.T) {
			retries := func(opts ...Option) (retries, injected int) {
				inj := faultinject.New(faultinject.Rule{Op: faultinject.Read, Every: 7, Count: 5,
					Fault: faultinject.Fault{Err: faultinject.Transient("read blip")}})
				store := backend.open(t, NewStoreConfig().WithFaults(inj).WithRetry(RetryPolicy{MaxAttempts: 3}))
				defer store.Close()
				res, err := Sort(context.Background(), NewSliceIterator(recs),
					append(opts, WithStore(store), WithBudget(NewBudget(8)), WithPageRecords(64))...)
				if err != nil {
					t.Fatal(err)
				}
				out, err := Drain(res.Iterator())
				if err != nil {
					t.Fatal(err)
				}
				assertSorted(t, out)
				if err := res.Close(); err != nil {
					t.Fatal(err)
				}
				return res.Stats.StoreRetries, inj.Injected()
			}
			untraced, injected := retries()
			traced, _ := retries(WithEventLog(64))
			if injected == 0 || untraced != injected || traced != untraced {
				t.Fatalf("Stats.StoreRetries = %d untraced, %d traced, for %d injected faults; want one retry each",
					untraced, traced, injected)
			}
		})
	}
}

// TestSortFaultSchedulesNewBackends runs the scripted fault-schedule table
// through pooled sorts over MemStore, a striped FileStore and MmapStore. Every
// recoverable schedule must show its healed attempts in Stats.StoreRetries.
func TestSortFaultSchedulesNewBackends(t *testing.T) {
	recs := faultSortInput(4096)
	policy := RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
	cases := []struct {
		name    string
		rules   []faultinject.Rule
		wantErr []error // nil: the schedule heals by retrying
	}{
		{
			name: "transient-read",
			rules: []faultinject.Rule{{Op: faultinject.Read, Nth: 2, Count: 1,
				Fault: faultinject.Fault{Err: faultinject.Transient("read blip")}}},
		},
		{
			name: "transient-write",
			rules: []faultinject.Rule{{Op: faultinject.Write, Nth: 1, Count: 1,
				Fault: faultinject.Fault{Err: faultinject.Transient("write blip")}}},
		},
		{
			name: "short-write",
			rules: []faultinject.Rule{{Op: faultinject.Write, Nth: 1, Count: 1,
				Fault: faultinject.Fault{Err: faultinject.Transient("torn"), Short: 7}}},
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
				store := backend.build(t, inj, policy)
				pool := NewBudget(8, queueing)
				res, err := Sort(context.Background(), NewSliceIterator(recs),
					WithStore(store), WithBudget(pool), WithPageRecords(64), WithEventLog(256))
				if len(tc.wantErr) > 0 {
					if err == nil {
						// The last merge step runs under the drain, so a
						// fault there is the drain's error.
						_, err = Drain(res.Iterator())
						res.Close()
					}
					if err == nil {
						t.Fatalf("sort and drain succeeded under a terminal fault schedule (%v)", inj)
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
					if res.Stats.StoreRetries == 0 {
						t.Error("Stats.StoreRetries = 0, want > 0")
					}
					if err := res.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if l := Leftovers(pool); l != "" {
					t.Fatalf("pool leaked: %s", l)
				}
				if n := store.Live(); n != 0 {
					t.Fatalf("%d runs leaked", n)
				}
				if err := store.Close(); err != nil {
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
				store := backend.build(t, inj,
					RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond})
				pool := NewBudget(8, queueing)
				okErr := func(err error) bool {
					return errors.Is(err, ErrStoreFailed) || errors.Is(err, ErrCorruptPage)
				}
				res, err := Sort(context.Background(), NewSliceIterator(recs),
					WithStore(store), WithBudget(pool), WithPageRecords(32), WithEventLog(64))
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
				if l := Leftovers(pool); l != "" {
					t.Fatalf("seed %d: pool leaked: %s", seed, l)
				}
				if n := store.Live(); n != 0 {
					t.Fatalf("seed %d: %d runs leaked", seed, n)
				}
				if err := store.Close(); err != nil {
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
				withDeviceFaults(tc.hooks).
				WithRetry(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}).
				File(t.TempDir(), t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			pool := NewBudget(8, queueing)
			res, err := Sort(context.Background(), NewSliceIterator(recs),
				WithStore(store), WithBudget(pool), WithPageRecords(64), WithEventLog(256))
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
			if l := Leftovers(pool); l != "" {
				t.Fatalf("pool leaked: %s", l)
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
				withDeviceFaults(tc.hooks).
				WithRetry(policy).
				File(t.TempDir(), t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			pool := NewBudget(32, queueing)
			res, err := Sort(context.Background(), NewSliceIterator(recs),
				WithStore(store), WithBudget(pool), WithWorkers(4),
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
				if res.Stats.Workers != 2 { // WithWorkers(4) resolves to two
					t.Errorf("Stats.Workers = %d, want 2", res.Stats.Workers)
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
			if l := Leftovers(pool); l != "" {
				t.Fatalf("pool leaked: %s", l)
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
