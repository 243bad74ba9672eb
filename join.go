package masort

import (
	"context"

	"github.com/memadapt/masort/internal/core"
)

// Join equi-joins two inputs on Record.Key using the paper's memory-adaptive
// sort-merge join: both inputs are split into sorted runs, then merged
// concurrently while joining, with preliminary merge steps on whichever
// relation the paper's cost rule selects. The budget may be resized while
// the join runs, exactly as for Sort. Each output record carries the join
// key and the concatenation of the left and right payloads.
//
// The joined records are written once, to one output run, which the
// Result reads back as a last step of one input (see Result): under
// WithPool the operator stays admitted until that result is drained or
// closed. The result's Join field holds the join-specific statistics.
// Cancellation behaves as for Sort: the join aborts at its next adaptation
// point, freeing every run of both relations.
func Join(ctx context.Context, left, right Iterator, opts ...Option) (*Result, error) {
	return runOp(ctx, applyOptions(opts), "join", []Iterator{left, right}, func(env *core.Env, cfg core.SortConfig, o config) (*Result, error) {
		res, err := core.SortMergeJoin(env,
			&pageInput{it: left, size: o.pageRecords},
			&pageInput{it: right, size: o.pageRecords}, cfg)
		if err != nil {
			return nil, err
		}
		out := heldResult(env, res.Last, res.Tuples, res.Stats.SortStats)
		out.Join = &res.Stats
		return out, nil
	})
}
