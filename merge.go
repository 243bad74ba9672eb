package masort

import (
	"context"
	"fmt"

	"github.com/memadapt/masort/internal/core"
)

// WriteRun materializes an already-sorted iterator as a run in the store,
// verifying the ordering. It returns the new run's id and size. Use it to
// feed externally produced sorted data (e.g. flushed memtables, partition
// files) into Merge.
func WriteRun(store RunStore, it Iterator, pageRecords int) (RunID, int, error) {
	if pageRecords <= 0 {
		pageRecords = 256
	}
	var prev Record
	n := 0
	checked := FuncIterator(func() (Record, bool, error) {
		rec, ok, err := it.Next()
		if err != nil || !ok {
			return rec, ok, err
		}
		if n > 0 && Less(rec, prev) {
			return rec, false, fmt.Errorf("masort: WriteRun input not sorted at record %d", n)
		}
		prev = rec
		n++
		return rec, true, nil
	})
	res, err := core.WriteRun(&core.Env{Store: store, In: &pageInput{it: checked, size: pageRecords}})
	if err != nil {
		return 0, 0, err
	}
	return res.Result, res.Tuples, nil
}

// Merge combines already-sorted runs into a single sorted run under the
// configured memory budget and adaptation strategy — the merge phase of an
// external sort exposed directly, for compaction-style workloads (think of
// merging LSM sorted files with a memory allotment that changes while the
// compaction runs).
//
// The input runs are CONSUMED: Merge frees them from the store as they are
// retired, and a canceled merge frees the not-yet-retired ones too. With
// zero inputs an empty result is returned; with one input that run becomes
// the result unchanged — without rescanning it, so that result's Tuples is
// 0 (Pages is exact; WriteRun reports the tuple count at write time).
//
// The store argument is authoritative — the ids name runs inside it — so a
// WithStore option is ignored here.
func Merge(ctx context.Context, store RunStore, ids []RunID, opts ...Option) (*Result, error) {
	opt := applyOptions(opts)
	opt.store = store
	return runOp(ctx, opt, "merge", func(env *core.Env, cfg core.SortConfig, _ config) (*Result, error) {
		return sortResult(core.MergeExisting(env, cfg, ids))
	})
}
