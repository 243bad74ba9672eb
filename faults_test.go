package masort

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/faultinject"
)

// hookFuncs adapts plain funcs to the FaultHooks seam for tests that want
// ad-hoc hooks instead of a scripted faultinject.Injector.
type hookFuncs struct {
	beforeWrite func(off int64, b []byte) (int, error)
	afterRead   func(off int64, b []byte) error
}

func (h hookFuncs) BeforeWrite(off int64, b []byte) (int, error) {
	if h.beforeWrite == nil {
		return -1, nil
	}
	return h.beforeWrite(off, b)
}

func (h hookFuncs) AfterRead(off int64, b []byte) error {
	if h.afterRead == nil {
		return nil
	}
	return h.afterRead(off, b)
}

// waitGoroutines polls until the goroutine count returns to (at most) the
// baseline, failing with a full stack dump if it never does — the abort
// paths must not leak the stores' reader goroutines or the crew's workers.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after grace period:\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// faultSortInput builds a deterministic shuffled input large enough to
// spill and merge under a small budget.
func faultSortInput(n int) []Record {
	rng := rand.New(rand.NewPCG(42, 1))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: rng.Uint64(), Payload: []byte{byte(i), byte(i >> 8)}}
	}
	return recs
}

// TestSortFaultSchedules is the fault-schedule table: each case injects one
// scripted failure mode into a real pooled external sort and asserts the
// sentinel chain (or recovery), the retry count in Stats, and that nothing
// leaks — pool grants, runs, or goroutines.
func TestSortFaultSchedules(t *testing.T) {
	recs := faultSortInput(4096)
	policy := RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
	cases := []struct {
		name        string
		rules       []faultinject.Rule
		wantErr     []error // sentinels required in the chain; empty = must succeed
		wantRetries bool    // Stats.StoreRetries must be > 0
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
			name: "bit-flip-once",
			rules: []faultinject.Rule{{Op: faultinject.Read, Nth: 1, Count: 1,
				Fault: faultinject.Fault{FlipBit: 42}}},
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			inj := faultinject.New(tc.rules...)
			store, err := NewStoreConfig().WithFaults(inj).WithRetry(policy).File(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			pool := NewBudget(8, queueing)
			res, err := Sort(context.Background(), NewSliceIterator(recs),
				WithStore(store), WithBudget(pool), WithPageRecords(64), WithEventLog(256))
			if len(tc.wantErr) > 0 {
				if err == nil {
					// The last merge step runs under the drain, so a fault
					// there is the drain's error.
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
				for rec, err := range res.All() {
					if err != nil {
						t.Fatalf("record %d: %v", n, err)
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
			// Leak-free abort invariant: every pool grant released, every
			// run freed, every background goroutine gone.
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

// TestSortFaultSoak runs randomized seeded fault schedules against pooled
// sorts: whatever mix of transient, permanent and corrupting faults a seed
// produces, the sort either completes with correct output or fails with
// the documented sentinels — and never leaks pool pages, runs, or
// goroutines. Run it under -race; the seeds are fixed so failures
// reproduce.
func TestSortFaultSoak(t *testing.T) {
	seeds := 18
	if testing.Short() {
		seeds = 6
	}
	base := runtime.NumGoroutine()
	recs := faultSortInput(2048)
	prof := faultinject.Profile{
		PTransientRead:  0.05,
		PTransientWrite: 0.05,
		PPermanentWrite: 0.02,
		PBitFlip:        0.03,
		PShortWrite:     0.5,
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		inj := faultinject.NewSeeded(seed, prof)
		store, err := NewStoreConfig().WithFaults(inj).
			WithRetry(RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond}).File(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
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
					// The final run is read through the same faulty store;
					// a terminal fault mid-iteration is a legal outcome.
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
		if store.Live() != 0 {
			t.Fatalf("seed %d: %d runs leaked", seed, store.Live())
		}
		if err := store.Close(); err != nil {
			t.Fatalf("seed %d: store close: %v", seed, err)
		}
	}
	waitGoroutines(t, base)
}

// TestConcurrentReadersDuringWriteFailure injects a torn, permanently
// failing write while parallel reads of the written prefix are in flight:
// every read must either return its exact page or the ErrStoreFailed
// chain — never torn or partial data (the failed batch is never indexed and
// the truncate touches nothing a read can ask for).
func TestConcurrentReadersDuringWriteFailure(t *testing.T) {
	const durablePages = 4
	for iter := 0; iter < 25; iter++ {
		inj := faultinject.New(faultinject.Rule{Op: faultinject.Write, Nth: 2,
			Fault: faultinject.Fault{Err: faultinject.Permanent("dead batch"), Short: 9}})
		store, err := NewStoreConfig().WithFaults(inj).File(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		id, _ := store.Create()
		var batch1 []Page
		for p := 0; p < durablePages; p++ {
			batch1 = append(batch1, Page{{Key: uint64(100 + p), Payload: []byte{byte(p), 0xEE}}})
		}
		tok1, err := store.Append(id, batch1)
		if err != nil || tok1.Wait() != nil {
			t.Fatal("durable batch failed")
		}

		type readResult struct {
			pg  Page
			err error
		}
		results := make([]readResult, durablePages)
		var wg sync.WaitGroup
		for p := 0; p < durablePages; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				pg, err := store.ReadAsync(id, p).Wait()
				results[p] = readResult{pg, err}
			}(p)
		}
		tok2, err := store.Append(id, []Page{{{Key: 999}}, {{Key: 1000}}})
		if err != nil {
			t.Fatal(err)
		}
		if werr := tok2.Wait(); !errors.Is(werr, ErrStoreFailed) {
			t.Fatalf("failing batch token = %v, want ErrStoreFailed chain", werr)
		}
		wg.Wait()

		for p, r := range results {
			switch {
			case r.err != nil:
				if !errors.Is(r.err, ErrStoreFailed) {
					t.Fatalf("iter %d page %d: error %v, want ErrStoreFailed chain", iter, p, r.err)
				}
			default:
				if len(r.pg) != 1 || r.pg[0].Key != uint64(100+p) ||
					len(r.pg[0].Payload) != 2 || r.pg[0].Payload[0] != byte(p) || r.pg[0].Payload[1] != 0xEE {
					t.Fatalf("iter %d page %d: served torn/corrupt page %+v", iter, p, r.pg)
				}
			}
		}
		if got := store.Pages(id); got != durablePages {
			t.Fatalf("iter %d: Pages = %d after rollback, want %d", iter, got, durablePages)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStoreCorruptionOnMedium corrupts the run file on disk (not in
// transit), so the mandatory re-read sees the same bad bytes: the read
// must fail with ErrCorruptPage in the chain, and the token must report
// exactly one retry (the re-read).
func TestFileStoreCorruptionOnMedium(t *testing.T) {
	store, err := newFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := store.Create()
	tok, err := store.Append(id, []Page{{{Key: 7, Payload: []byte("precious bytes")}}})
	if err != nil || tok.Wait() != nil {
		t.Fatal("append failed")
	}
	name := runFile(store.pagedStore, id, 0)
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	pt := store.ReadAsync(id, 0)
	if _, err := pt.Wait(); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read of corrupted medium = %v, want ErrCorruptPage chain", err)
	} else if errors.Is(err, ErrStoreFailed) {
		t.Fatalf("corruption must not be classified ErrStoreFailed: %v", err)
	}
	if got := pt.(interface{ Retries() int }).Retries(); got != 1 {
		t.Fatalf("corruption re-reads = %d, want exactly 1", got)
	}
}

// TestFileStoreTransientReadHeals is the in-transit twin: a one-shot
// injected bit flip is healed by the re-read, and a one-shot transient
// read error is healed by the retry policy — both invisible to the caller
// beyond the token's retry count.
func TestFileStoreTransientReadHeals(t *testing.T) {
	cases := []struct {
		name  string
		fault faultinject.Fault
	}{
		{"bit-flip", faultinject.Fault{FlipBit: 99}},
		{"io-error", faultinject.Fault{Err: faultinject.Transient("blip")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(faultinject.Rule{Op: faultinject.Read, Nth: 1, Count: 1, Fault: tc.fault})
			store, err := NewStoreConfig().WithFaults(inj).
				WithRetry(RetryPolicy{MaxAttempts: 2}).File(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			id, _ := store.Create()
			tok, err := store.Append(id, []Page{{{Key: 5, Payload: []byte("hello disk")}}})
			if err != nil || tok.Wait() != nil {
				t.Fatal("append failed")
			}
			pt := store.ReadAsync(id, 0)
			pg, err := pt.Wait()
			if err != nil {
				t.Fatalf("read did not heal: %v", err)
			}
			if len(pg) != 1 || pg[0].Key != 5 || string(pg[0].Payload) != "hello disk" {
				t.Fatalf("healed read returned wrong page: %+v", pg)
			}
			if got := pt.(interface{ Retries() int }).Retries(); got != 1 {
				t.Fatalf("retries = %d, want 1", got)
			}
		})
	}
}

// TestStoreErrorSentinelChains pins the wrapping discipline for the new
// sentinels: errors.Is must see both the sentinel and the original cause
// through every layer.
func TestStoreErrorSentinelChains(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Op: faultinject.Write, Nth: 1,
		Fault: faultinject.Fault{Err: syscall.ENOSPC}})
	store, err := NewStoreConfig().WithFaults(inj).File(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := store.Create()
	tok, err := store.Append(id, []Page{{{Key: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	werr := tok.Wait()
	for _, sentinel := range []error{ErrStoreFailed, syscall.ENOSPC} {
		if !errors.Is(werr, sentinel) {
			t.Errorf("write token error %v is missing %v", werr, sentinel)
		}
	}
	// The broken run propagates the same chain through Append and reads.
	if _, err := store.Append(id, []Page{{{Key: 2}}}); !errors.Is(err, ErrStoreFailed) || !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("append-to-broken chain broken: %v", err)
	}
	if _, err := store.ReadAsync(id, 0).Wait(); !errors.Is(err, ErrStoreFailed) {
		t.Errorf("read-of-broken chain broken: %v", err)
	}
	// The sentinels are distinct classes.
	if errors.Is(werr, ErrCorruptPage) {
		t.Error("ErrStoreFailed chain must not satisfy ErrCorruptPage")
	}
}
