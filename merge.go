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
	id, err := store.Create()
	if err != nil {
		return 0, 0, err
	}
	var (
		pg     = make(Page, 0, pageRecords)
		prev   Record
		have   bool
		tuples int
		pages  int
	)
	flush := func() error {
		if len(pg) == 0 {
			return nil
		}
		tok, err := store.Append(id, []Page{pg})
		if err != nil {
			return err
		}
		if err := tok.Wait(); err != nil {
			return err
		}
		pages++
		pg = make(Page, 0, pageRecords)
		return nil
	}
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		if have && Less(rec, prev) {
			return 0, 0, fmt.Errorf("masort: WriteRun input not sorted at record %d", tuples)
		}
		prev, have = rec, true
		pg = append(pg, rec)
		tuples++
		if len(pg) == pageRecords {
			if err := flush(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := flush(); err != nil {
		return 0, 0, err
	}
	return id, tuples, nil
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
