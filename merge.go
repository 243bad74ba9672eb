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
	in := &orderedInput{pageInput: pageInput{it: it, size: pageRecords}}
	res, err := core.WriteRun(&core.Env{Store: store, In: in}, mergeBlockPages)
	if err != nil {
		return 0, 0, err
	}
	return res.Result, res.Tuples, nil
}

// orderedInput is a pageInput that checks the ordering of what it yields,
// page by page and across page boundaries, so a slice input still pages as
// sub-slices of the caller's records.
type orderedInput struct {
	pageInput
	prev Record // last record of the pages before
	n    int    // records in the pages before
}

func (o *orderedInput) NextPage() (core.Page, bool, error) {
	pg, ok, err := o.pageInput.NextPage()
	if err != nil || !ok {
		return pg, ok, err
	}
	for i, rec := range pg {
		if o.n+i > 0 && Less(rec, o.prev) {
			return nil, false, fmt.Errorf("masort: WriteRun input not sorted at record %d", o.n+i)
		}
		o.prev = rec
	}
	o.n += len(pg)
	return pg, true, nil
}

// Merge combines already-sorted runs into one sorted output under the
// configured memory budget and adaptation strategy — the merge phase of an
// external sort exposed directly, for compaction-style workloads (think of
// merging LSM sorted files with a memory allotment that changes while the
// compaction runs). It returns before the last merge step, which
// Result.Iterator runs (see Result).
//
// The input runs are CONSUMED: Merge frees them from the store as they are
// retired — the last step's inputs when the Result is closed — and a
// canceled merge frees the not-yet-retired ones too. With zero inputs the
// result's last step has none and yields nothing; with one input it reads
// that run, unchanged — without a scan before it, so that result's Tuples
// is 0 until a drain has counted it (WriteRun reports the tuple count at
// write time).
//
// The store argument is authoritative — the ids name runs inside it — so a
// WithStore option is ignored here. WithWorkers parallelises run
// generation, which a Merge does not do: it runs on one worker whatever
// WithWorkers asks, and Stats.Workers reports 1.
func Merge(ctx context.Context, store RunStore, ids []RunID, opts ...Option) (*Result, error) {
	opt := applyOptions(opts)
	opt.store = store
	return runOp(ctx, opt, "merge", nil, func(env *core.Env, cfg core.SortConfig, _ config) (*Result, error) {
		res, err := core.MergeExisting(env, cfg, ids)
		return sortResult(env, res, err)
	})
}
