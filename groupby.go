package masort

import (
	"context"
	"fmt"
)

// Aggregator folds the records of one key group into a single output
// record. GroupBy creates no intermediate state per distinct key — groups
// arrive consecutively from the underlying memory-adaptive sort, so only
// one group is open at a time (the classic sort-based group-by the paper's
// introduction mentions).
type Aggregator interface {
	// Start opens a group with its first record.
	Start(rec Record)
	// Add folds a further record with the same key.
	Add(rec Record)
	// Finish closes the group, returning the aggregate's payload.
	Finish(key Key) (payload []byte)
}

// CountAggregator counts group members; the payload is the decimal count.
type CountAggregator struct{ n int }

// Start implements Aggregator.
func (c *CountAggregator) Start(Record) { c.n = 1 }

// Add implements Aggregator.
func (c *CountAggregator) Add(Record) { c.n++ }

// Finish implements Aggregator.
func (c *CountAggregator) Finish(Key) []byte { return fmt.Appendf(nil, "%d", c.n) }

// FirstAggregator keeps the first record's payload — GroupBy with it is
// DISTINCT on the key.
type FirstAggregator struct{ payload []byte }

// Start implements Aggregator.
func (f *FirstAggregator) Start(rec Record) { f.payload = rec.Payload }

// Add implements Aggregator.
func (f *FirstAggregator) Add(Record) {}

// Finish implements Aggregator.
func (f *FirstAggregator) Finish(Key) []byte { return f.payload }

// FuncAggregator adapts three functions to an Aggregator.
type FuncAggregator struct {
	OnStart  func(Record)
	OnAdd    func(Record)
	OnFinish func(Key) []byte
}

// Start implements Aggregator.
func (f *FuncAggregator) Start(rec Record) { f.OnStart(rec) }

// Add implements Aggregator.
func (f *FuncAggregator) Add(rec Record) { f.OnAdd(rec) }

// Finish implements Aggregator.
func (f *FuncAggregator) Finish(k Key) []byte { return f.OnFinish(k) }

// GroupBy groups the input by Record.Key and folds each group with agg,
// returning one record per distinct key, sorted by key. The grouping runs on
// the memory-adaptive external sort, so the budget may be resized while it
// executes, and the Result is the sort's last merge step (see Result):
// Iterator folds the groups straight off it, under the caller's Next —
// Start, Add and Finish run inside Next — at every WithWorkers count. So
// neither the sorted input nor the groups are written to the store, and
// Finish runs while the operator holds its memory contract, the last one
// before the drain that completes the operator ends. Tuples, the number of
// groups, is 0 until that drain. Every Iterator folds afresh with agg, so
// the iterators of one GroupBy result must not interleave. Cancellation is
// observed by the sort and by the drain.
func GroupBy(ctx context.Context, input Iterator, agg Aggregator, opts ...Option) (*Result, error) {
	res, err := sortNamed(ctx, input, applyOptions(opts), "groupby")
	if err != nil {
		return nil, err
	}
	res.Tuples = 0
	res.last.agg = agg
	return res, nil
}
