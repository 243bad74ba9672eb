package main

import (
	"context"
	"sync"
	"testing"

	"github.com/memadapt/masort"
	"github.com/memadapt/masort/storetest"
	"github.com/memadapt/masort/trace"
)

// measured puts both benchmark wrappers around s, as the traced rep does.
func measured(s masort.RunStore) masort.RunStore {
	return &timingStore{RunStore: &countingStore{RunStore: s}, rec: newRecorder(0, 2)}
}

func fileStore(tb testing.TB, cfg *masort.StoreConfig) masort.RunStore {
	s, err := cfg.File(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	return s
}

func retrying(h masort.FaultHooks) *masort.StoreConfig {
	return masort.NewStoreConfig().WithFaults(h).WithRetry(masort.RetryPolicy{MaxAttempts: 3})
}

// A store behind the benchmark's wrappers must still be a RunStore in every
// respect the engine relies on, or a measured sort is not the sort users
// run.
func TestWrappedMemStoreConforms(t *testing.T) {
	storetest.Run(t, storetest.Config{
		New: func(testing.TB) masort.RunStore { return measured(masort.NewMemStore()) },
	})
}

func TestWrappedFileStoreConforms(t *testing.T) {
	storetest.Run(t, storetest.Config{
		New: func(tb testing.TB) masort.RunStore { return measured(fileStore(tb, masort.NewStoreConfig())) },
		NewFaulty: func(tb testing.TB, h masort.FaultHooks) masort.RunStore {
			return measured(fileStore(tb, retrying(h)))
		},
	})
}

// failOnce fails the first write at every offset with a transient error.
type failOnce struct {
	mu   sync.Mutex
	seen map[int64]bool
}

type transientErr struct{}

func (transientErr) Error() string   { return "injected transient write error" }
func (transientErr) Temporary() bool { return true }

func (f *failOnce) BeforeWrite(off int64, _ []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen[off] {
		return -1, nil
	}
	f.seen[off] = true
	return -1, transientErr{}
}

func (f *failOnce) AfterRead(int64, []byte) error { return nil }

// The engine counts retried store attempts by asking each token; the timed
// tokens must pass the question through.
func TestTimedTokensForwardRetries(t *testing.T) {
	var in input
	w := workload{Records: 20_000}
	in.generate(w, 7)
	retries := func(wrap bool) int {
		store := fileStore(t, retrying(&failOnce{seen: map[int64]bool{}}))
		if wrap {
			store = measured(store)
		}
		res, err := masort.Sort(context.Background(), masort.NewSliceIterator(in.recs),
			masort.WithPageRecords(pageRecords), masort.WithBudget(masort.NewBudget(8)),
			masort.WithStore(store), masort.WithTracer(trace.NewMetrics()))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		return res.Stats.StoreRetries
	}
	bare, wrapped := retries(false), retries(true)
	if bare == 0 || wrapped != bare {
		t.Fatalf("StoreRetries = %d behind the wrappers, %d without; want equal and non-zero", wrapped, bare)
	}
}
