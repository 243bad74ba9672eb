package masort

// One benchmark per table and figure of the paper's evaluation (Section 5),
// plus the Section 6 join experiment, the design ablations, and real-engine
// micro-benchmarks. Each experiment bench runs the corresponding
// internal/experiments harness at reduced scale (shape-preserving) and
// reports the headline series as custom metrics; the full-scale numbers are
// produced by cmd/masim (see EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/experiments"
	"github.com/memadapt/masort/trace"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Sorts: 2, Scale: 0.25, Workers: 4}
}

// metric parses a table cell as float (benchmark metric plumbing). Cells may
// carry a confidence interval ("268.8 ±12.3"): the mean is the first token.
func metric(t experiments.Table, row, col int) float64 {
	cell := t.Rows[row][col]
	if i := strings.IndexByte(cell, ' '); i > 0 {
		cell = cell[:i]
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return -1
	}
	return v
}

func runExp(b *testing.B, fn func(experiments.Options) ([]experiments.Table, error)) []experiments.Table {
	b.Helper()
	var tables []experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = fn(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// BenchmarkTable5_BlockWriteSize regenerates Table 5: per-page disk access
// time versus replacement-selection block size N.
func BenchmarkTable5_BlockWriteSize(b *testing.B) {
	ts := runExp(b, experiments.Table5)
	b.ReportMetric(metric(ts[0], 0, 1), "ms/page-N1")
	b.ReportMetric(metric(ts[0], 3, 1), "ms/page-N6")
}

// BenchmarkFigure5_NoFluctuation regenerates Figure 5: response time vs M
// for the six method x merging-strategy combinations, no fluctuation.
func BenchmarkFigure5_NoFluctuation(b *testing.B) {
	ts := runExp(b, experiments.NoFluctuation)
	fig5 := ts[0]
	last := len(fig5.Rows) - 1
	b.ReportMetric(metric(fig5, 0, 2), "s-quickOpt-smallM")
	b.ReportMetric(metric(fig5, last, 2), "s-quickOpt-bigM")
	b.ReportMetric(metric(fig5, 0, 6), "s-repl6Opt-smallM")
}

// BenchmarkTable6_SplitPhase regenerates Table 6: runs, merge steps and
// split duration per in-memory method vs M.
func BenchmarkTable6_SplitPhase(b *testing.B) {
	ts := runExp(b, experiments.NoFluctuation)
	t6 := ts[1]
	b.ReportMetric(metric(t6, 0, 1), "runs-quick-smallM")
	b.ReportMetric(metric(t6, 3, 1), "runs-repl1-smallM")
	b.ReportMetric(metric(t6, 6, 1), "runs-repl6-smallM")
}

// BenchmarkFigure6_Baseline regenerates Figure 6 and Tables 7-9: all 18
// algorithms at the baseline point.
func BenchmarkFigure6_Baseline(b *testing.B) {
	ts := runExp(b, experiments.Baseline)
	t7 := ts[1]
	// quick,naive row: susp / page / split response times.
	b.ReportMetric(metric(t7, 0, 1), "s-susp")
	b.ReportMetric(metric(t7, 0, 2), "s-page")
	b.ReportMetric(metric(t7, 0, 3), "s-split")
}

// BenchmarkTable8_SplitDelays regenerates Table 8's split-phase delays
// (method responsiveness to memory requests).
func BenchmarkTable8_SplitDelays(b *testing.B) {
	ts := runExp(b, experiments.Baseline)
	t8 := ts[2]
	b.ReportMetric(metric(t8, 0, 3), "ms-delay-quick")
	b.ReportMetric(metric(t8, 2, 3), "ms-delay-repl6")
}

// BenchmarkTable9_MergingStrategies regenerates Table 9: naive vs opt per
// adaptation strategy.
func BenchmarkTable9_MergingStrategies(b *testing.B) {
	ts := runExp(b, experiments.Baseline)
	t9 := ts[3]
	b.ReportMetric(metric(t9, 0, 1), "s-quickSusp-naive")
	b.ReportMetric(metric(t9, 0, 2), "s-quickSusp-opt")
}

// BenchmarkFigure7_MemoryRatio regenerates Figure 7: repl6 response vs M
// under page and split.
func BenchmarkFigure7_MemoryRatio(b *testing.B) {
	ts := runExp(b, experiments.Ratio)
	f7 := ts[0]
	b.ReportMetric(metric(f7, 0, 2), "s-page-smallM")
	b.ReportMetric(metric(f7, 0, 4), "s-split-smallM")
}

// BenchmarkFigure8_SplitMethods regenerates Figure 8: quick vs repl6 under
// dynamic splitting.
func BenchmarkFigure8_SplitMethods(b *testing.B) {
	ts := runExp(b, experiments.Ratio)
	f8 := ts[1]
	b.ReportMetric(metric(f8, 0, 2), "s-quickOpt-smallM")
	b.ReportMetric(metric(f8, 0, 4), "s-repl6Opt-smallM")
}

// BenchmarkFigure9_SplitDelays regenerates Figure 9: mean/max split-phase
// delays vs M for quick and repl6.
func BenchmarkFigure9_SplitDelays(b *testing.B) {
	ts := runExp(b, experiments.Ratio)
	f9 := ts[2]
	last := len(f9.Rows) - 1
	b.ReportMetric(metric(f9, last, 1), "ms-quick-bigM")
	b.ReportMetric(metric(f9, last, 3), "ms-repl6-bigM")
}

// BenchmarkFigure10_Magnitude regenerates Figure 10: repl6 under large
// memory fluctuations, page vs split.
func BenchmarkFigure10_Magnitude(b *testing.B) {
	ts := runExp(b, experiments.Magnitude)
	f10 := ts[0]
	b.ReportMetric(metric(f10, 0, 2), "s-page-smallM")
	b.ReportMetric(metric(f10, 0, 4), "s-split-smallM")
}

// BenchmarkFigure11_MagnitudeMethods regenerates Figure 11: quick vs repl6
// under large fluctuations with dynamic splitting.
func BenchmarkFigure11_MagnitudeMethods(b *testing.B) {
	ts := runExp(b, experiments.Magnitude)
	f11 := ts[1]
	b.ReportMetric(metric(f11, 0, 2), "s-quickOpt-smallM")
	b.ReportMetric(metric(f11, 0, 4), "s-repl6Opt-smallM")
}

// BenchmarkFigure12_RateQuick regenerates Figure 12: quick under fast vs
// slow fluctuation rates.
func BenchmarkFigure12_RateQuick(b *testing.B) {
	ts := runExp(b, experiments.Rate)
	f12 := ts[0]
	b.ReportMetric(metric(f12, 0, 3), "s-split-fast-smallM")
	b.ReportMetric(metric(f12, 0, 4), "s-split-slow-smallM")
}

// BenchmarkFigure13_RateRepl6 regenerates Figure 13: repl6 under fast vs
// slow fluctuation rates.
func BenchmarkFigure13_RateRepl6(b *testing.B) {
	ts := runExp(b, experiments.Rate)
	f13 := ts[1]
	b.ReportMetric(metric(f13, 0, 3), "s-split-fast-smallM")
	b.ReportMetric(metric(f13, 0, 4), "s-split-slow-smallM")
}

// BenchmarkJoin_Baseline regenerates the Section 6 experiment:
// memory-adaptive sort-merge joins under baseline fluctuation.
func BenchmarkJoin_Baseline(b *testing.B) {
	ts := runExp(b, experiments.Join)
	t := ts[0]
	b.ReportMetric(metric(t, 0, 1), "s-quickSusp")
	b.ReportMetric(metric(t, 5, 1), "s-repl6Split")
}

// BenchmarkConcurrent_Multiprogramming runs the extension experiment:
// several sorts over a shared buffer pool (paper §1 motivation).
func BenchmarkConcurrent_Multiprogramming(b *testing.B) {
	ts := runExp(b, experiments.Concurrent)
	t := ts[0]
	b.ReportMetric(metric(t, 2, 2), "sorts/h-susp-k4")
	b.ReportMetric(metric(t, 2, 6), "sorts/h-split-k4")
}

// BenchmarkDisks_Array runs the extension experiment: response vs #disks.
func BenchmarkDisks_Array(b *testing.B) {
	ts := runExp(b, experiments.Disks)
	t := ts[0]
	b.ReportMetric(metric(t, 0, 1), "s-1disk")
	b.ReportMetric(metric(t, 3, 1), "s-8disks")
}

// BenchmarkAblation_DesignChoices quantifies shortest-first selection,
// combining, and the adaptive block I/O extension (paper §7).
func BenchmarkAblation_DesignChoices(b *testing.B) {
	ts := runExp(b, experiments.Ablation)
	t := ts[0]
	b.ReportMetric(metric(t, 0, 1), "s-paper")
	b.ReportMetric(metric(t, 1, 1), "s-noShortestFirst")
	b.ReportMetric(metric(t, 2, 1), "s-noCombine")
	b.ReportMetric(metric(t, 3, 1), "s-adaptiveBlockIO")
}

// ---- real-engine micro-benchmarks ----

func benchRecords(n int) []Record {
	rng := rand.New(rand.NewPCG(11, 0))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: rng.Uint64()}
	}
	return recs
}

// BenchmarkRealSort measures the real execution engine's throughput for the
// paper's algorithm and its classic rivals.
func BenchmarkRealSort(b *testing.B) {
	recs := benchRecords(200_000)
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"repl6-split", nil},
		{"quick-split", WithMethod(Quicksort)},
		{"repl1-split", WithBlockPages(1)},
		{"repl6-susp", WithAdaptation(Suspension)},
		{"repl6-page", WithAdaptation(MRUPaging)},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Sort(context.Background(), NewSliceIterator(recs), tc.opt,
					WithPageRecords(256), WithBudget(NewBudget(32)), WithStore(NewMemStore()))
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(recs) * 8))
		})
	}
}

// BenchmarkRealSortParallel measures multi-core scaling of the real engine:
// the same sort at 1, 2 and 4 workers over a budget big enough that every
// worker's share keeps a healthy merge fan-in. w1 is the phase driver at
// W = 1 — both phases inline on the caller's goroutine, the path every
// default sort takes — not a separate engine; w2 and w4 run the same phase
// bodies on a crew. CI runs it across a GOMAXPROCS={1,2,4} matrix (timed,
// not gated).
func BenchmarkRealSortParallel(b *testing.B) {
	recs := benchRecords(400_000)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Sort(context.Background(), NewSliceIterator(recs),
					WithPageRecords(256), WithBudget(NewBudget(256)),
					WithStore(NewMemStore()), WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(recs) * 8))
		})
	}
}

// BenchmarkRealSortTraced measures the same sort as
// BenchmarkRealSort/repl6-split with a live Metrics tracer attached; the
// head-to-head pair quantifies what observability costs when it is ON. (The
// cost when it is OFF — the nil-tracer path of BenchmarkRealSort itself — is
// gated in CI against the pre-tracing baseline.)
func BenchmarkRealSortTraced(b *testing.B) {
	recs := benchRecords(200_000)
	m := trace.NewMetrics()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Sort(context.Background(), NewSliceIterator(recs),
			WithPageRecords(256), WithBudget(NewBudget(32)),
			WithStore(NewMemStore()), WithTracer(m))
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs) * 8))
}

// BenchmarkRealSortAdaptive measures sorting while the budget fluctuates.
func BenchmarkRealSortAdaptive(b *testing.B) {
	recs := benchRecords(200_000)
	for i := 0; i < b.N; i++ {
		budget := NewBudget(32)
		done := make(chan struct{})
		go func() {
			rng := rand.New(rand.NewPCG(3, 3))
			for {
				select {
				case <-done:
					return
				default:
					budget.Resize(3 + rng.IntN(30))
				}
			}
		}()
		res, err := Sort(context.Background(), NewSliceIterator(recs),
			WithPageRecords(256), WithBudget(budget))
		close(done)
		if err != nil {
			b.Fatal(err)
		}
		res.Close()
	}
	b.SetBytes(int64(len(recs) * 8))
}

// BenchmarkRealSortPool measures concurrent sorts arbitrated by one shared
// Pool smaller than their combined standalone budgets — the
// multiprogramming scenario of the paper's introduction on the real
// engine. Reported time is per full batch of concurrent sorts.
func BenchmarkRealSortPool(b *testing.B) {
	recs := benchRecords(100_000)
	for _, workers := range []int{2, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool := NewPool(32)
				var wg sync.WaitGroup
				var failed atomic.Bool
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := Sort(context.Background(), NewSliceIterator(recs),
							WithPageRecords(256), WithPool(pool))
						if err != nil {
							failed.Store(true)
							return
						}
						res.Close()
					}()
				}
				wg.Wait()
				if failed.Load() {
					b.Fatal("pooled sort failed")
				}
			}
			b.SetBytes(int64(workers * len(recs) * 8))
		})
	}
}

// BenchmarkRealJoin measures the real join engine.
func BenchmarkRealJoin(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	l := make([]Record, 100_000)
	r := make([]Record, 50_000)
	for i := range l {
		l[i] = Record{Key: rng.Uint64() % 65536}
	}
	for i := range r {
		r[i] = Record{Key: rng.Uint64() % 65536}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Join(context.Background(), NewSliceIterator(l), NewSliceIterator(r),
			WithPageRecords(256), WithBudget(NewBudget(24)))
		if err != nil {
			b.Fatal(err)
		}
		res.Close()
	}
}

// BenchmarkFileStore measures the disk-backed run store.
func BenchmarkFileStore(b *testing.B) {
	recs := benchRecords(100_000)
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store, err := NewFileStore(fmt.Sprintf("%s/run%d", dir, i))
		if err != nil {
			b.Fatal(err)
		}
		res, err := Sort(context.Background(), NewSliceIterator(recs),
			WithPageRecords(256), WithBudget(NewBudget(16)), WithStore(store))
		if err != nil {
			b.Fatal(err)
		}
		res.Close()
		store.Close()
	}
	b.SetBytes(int64(len(recs) * 8))
}

// benchPayloadRecords produces records with variable-length payloads of up
// to maxPayload bytes (mean maxPayload/2), exercising the payload
// encode/decode path that zero-payload benchmarks skip entirely.
func benchPayloadRecords(n, maxPayload int) (recs []Record, bytes int64) {
	rng := rand.New(rand.NewPCG(17, 4))
	recs = make([]Record, n)
	for i := range recs {
		p := make([]byte, rng.IntN(maxPayload+1))
		for j := range p {
			p[j] = byte(rng.Uint64())
		}
		bytes += int64(8 + len(p))
		recs[i] = Record{Key: rng.Uint64(), Payload: p}
	}
	return recs, bytes
}

// BenchmarkRealSortPayload measures the real engine sorting payload-bearing
// records through the default in-memory store.
func BenchmarkRealSortPayload(b *testing.B) {
	for _, maxPayload := range []int{16, 128} {
		recs, bytes := benchPayloadRecords(100_000, maxPayload)
		b.Run(fmt.Sprintf("p%d", maxPayload), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				res, err := Sort(context.Background(), NewSliceIterator(recs),
					WithPageRecords(256), WithBudget(NewBudget(32)))
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFileStorePayload measures the disk-backed store end to end with
// payload-bearing records: encode, background write, positional read, and
// zero-copy decode.
func BenchmarkFileStorePayload(b *testing.B) {
	for _, maxPayload := range []int{16, 128} {
		recs, bytes := benchPayloadRecords(50_000, maxPayload)
		b.Run(fmt.Sprintf("p%d", maxPayload), func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				store, err := NewFileStore(fmt.Sprintf("%s/run%d", dir, i))
				if err != nil {
					b.Fatal(err)
				}
				res, err := Sort(context.Background(), NewSliceIterator(recs),
					WithPageRecords(256), WithBudget(NewBudget(16)), WithStore(store))
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
				store.Close()
			}
		})
	}
}

// BenchmarkStoreMatrix measures raw run-write throughput for every store
// backend under the engine's actual write pattern: one run, at most one
// batch append in flight — each batch's durability token is awaited before
// the next Append, exactly as the split phase's waitOut does so output
// buffers can be recycled. bytes/s compares the backends' framing and
// hand-off overheads directly; writes land in the page cache, so device
// parallelism does not show here (see BenchmarkStoreMatrixDiskModel for
// that).
func BenchmarkStoreMatrix(b *testing.B) {
	const batches, perBatch, perPage = 16, 16, 64
	recs, _ := benchPayloadRecords(batches*perBatch*perPage, 240)
	var batchPages [][]Page
	var bytes int64
	for i := 0; i < batches; i++ {
		var pages []Page
		for p := 0; p < perBatch; p++ {
			off := (i*perBatch + p) * perPage
			pg := Page(recs[off : off+perPage])
			for _, r := range pg {
				bytes += int64(8 + len(r.Payload))
			}
			pages = append(pages, pg)
		}
		batchPages = append(batchPages, pages)
	}

	backends := []struct {
		name  string
		build func(b *testing.B) RunStore
	}{
		{"mem", func(b *testing.B) RunStore { return NewMemStore() }},
		{"file", func(b *testing.B) RunStore {
			s, err := NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
		{"striped2", func(b *testing.B) RunStore {
			s, err := NewStripedStore(b.TempDir(), b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
		{"striped4", func(b *testing.B) RunStore {
			s, err := NewStripedStore(b.TempDir(), b.TempDir(), b.TempDir(), b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
		{"mmap", func(b *testing.B) RunStore {
			s, err := NewStoreConfig().Mmap(b.TempDir())
			if err != nil {
				b.Skipf("mmap store unavailable: %v", err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
		{"tiered", func(b *testing.B) RunStore {
			backing, err := NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { backing.Close() })
			s, err := NewTieredStore(perBatch*2, backing)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
	}
	for _, backend := range backends {
		b.Run(backend.name, func(b *testing.B) {
			store := backend.build(b)
			b.ReportAllocs()
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := store.Create()
				if err != nil {
					b.Fatal(err)
				}
				for _, pages := range batchPages {
					tok, err := store.Append(id, pages)
					if err != nil {
						b.Fatal(err)
					}
					if err := tok.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				if err := store.Free(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreMatrixDiskModel is the real-engine twin of the paper's
// Disks experiment: the same one-batch-in-flight write pattern as
// BenchmarkStoreMatrix, but with every physical write charged a modeled
// device service time — 100µs of positioning plus 1ns per byte (a ~1 GB/s
// device) — injected through the fault-hook seam, which runs inside each
// device's writer goroutine. The page cache hides real device behavior, so
// this is what exposes the property striping exists for: a FileStore pays
// the whole batch's service time on one device, while a StripedStore's
// devices serve their shares of the batch concurrently, scaling write
// bandwidth with the number of devices even on a single-CPU host.
func BenchmarkStoreMatrixDiskModel(b *testing.B) {
	const batches, perBatch, perPage = 8, 32, 64
	recs, _ := benchPayloadRecords(batches*perBatch*perPage, 1024)
	var batchPages [][]Page
	var bytes int64
	for i := 0; i < batches; i++ {
		var pages []Page
		for p := 0; p < perBatch; p++ {
			off := (i*perBatch + p) * perPage
			pg := Page(recs[off : off+perPage])
			for _, r := range pg {
				bytes += int64(8 + len(r.Payload))
			}
			pages = append(pages, pg)
		}
		batchPages = append(batchPages, pages)
	}
	// Every write sleeps for the modeled device's service time before
	// hitting the file; the hook runs on the device's writer goroutine, so
	// sleeping devices overlap instead of stealing CPU from each other.
	disk := hookFuncs{beforeWrite: func(off int64, buf []byte) (int, error) {
		time.Sleep(100*time.Microsecond + time.Duration(len(buf))*time.Nanosecond)
		return -1, nil
	}}

	backends := []struct {
		name string
		dirs int
	}{
		{"file", 1},
		{"striped2", 2},
		{"striped4", 4},
	}
	for _, backend := range backends {
		b.Run(backend.name, func(b *testing.B) {
			var store RunStore
			if backend.dirs == 1 {
				s, err := NewStoreConfig().WithFaults(disk).File(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { s.Close() })
				store = s
			} else {
				dirs := make([]string, backend.dirs)
				for i := range dirs {
					dirs[i] = b.TempDir()
				}
				s, err := NewStoreConfig().WithFaults(disk).Striped(dirs...)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { s.Close() })
				store = s
			}
			b.ReportAllocs()
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := store.Create()
				if err != nil {
					b.Fatal(err)
				}
				for _, pages := range batchPages {
					tok, err := store.Append(id, pages)
					if err != nil {
						b.Fatal(err)
					}
					if err := tok.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				if err := store.Free(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
