package masort_test

import (
	"errors"
	"testing"

	"github.com/memadapt/masort"
	"github.com/memadapt/masort/storetest"
)

// Every built-in RunStore backend must pass the exported storetest
// conformance suite — the executable form of the RunStore contract. The
// fault variants route the suite's hooks through each backend's physical
// I/O seam with checksums on and a 3-attempt retry policy, per the
// storetest.Config.NewFaulty contract.

// faultyCfg is the store configuration the suite's fault subtests assume.
func faultyCfg(h masort.FaultHooks) *masort.StoreConfig {
	return masort.NewStoreConfig().
		WithFaults(h).
		WithRetry(masort.RetryPolicy{MaxAttempts: 3})
}

func TestMemStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Config{
		New: func(tb testing.TB) masort.RunStore {
			return masort.NewMemStore()
		},
		NewFaulty: func(tb testing.TB, h masort.FaultHooks) masort.RunStore {
			return masort.NewMemStoreWith(faultyCfg(h))
		},
	})
}

func TestFileStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Config{
		New: func(tb testing.TB) masort.RunStore {
			s, err := masort.NewStoreConfig().File(tb.TempDir())
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { _ = s.Close() })
			return s
		},
		NewFaulty: func(tb testing.TB, h masort.FaultHooks) masort.RunStore {
			s, err := faultyCfg(h).File(tb.TempDir())
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { _ = s.Close() })
			return s
		},
	})
}

// TestStripedStoreConformance runs the suite on a FileStore striped over
// three directories.
func TestStripedStoreConformance(t *testing.T) {
	dirs := func(tb testing.TB) []string {
		return []string{tb.TempDir(), tb.TempDir(), tb.TempDir()}
	}
	storetest.Run(t, storetest.Config{
		New: func(tb testing.TB) masort.RunStore {
			s, err := masort.NewStoreConfig().File(dirs(tb)...)
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { _ = s.Close() })
			return s
		},
		NewFaulty: func(tb testing.TB, h masort.FaultHooks) masort.RunStore {
			s, err := faultyCfg(h).File(dirs(tb)...)
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { _ = s.Close() })
			return s
		},
	})
}

func TestMmapStoreConformance(t *testing.T) {
	mmapStore := func(tb testing.TB, cfg *masort.StoreConfig) masort.RunStore {
		s, err := cfg.Mmap(tb.TempDir())
		if errors.Is(err, masort.ErrMmapUnsupported) {
			tb.Skip("mmap not supported on this platform")
		}
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = s.Close() })
		return s
	}
	storetest.Run(t, storetest.Config{
		New: func(tb testing.TB) masort.RunStore {
			return mmapStore(tb, masort.NewStoreConfig())
		},
		NewFaulty: func(tb testing.TB, h masort.FaultHooks) masort.RunStore {
			return mmapStore(tb, faultyCfg(h))
		},
	})
}
