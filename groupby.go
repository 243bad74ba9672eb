package masort

import (
	"context"
	"fmt"

	"github.com/memadapt/masort/internal/core"
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
// returning one record per distinct key (sorted by key). The grouping runs
// on the memory-adaptive external sort, so the budget may be resized while
// it executes; the aggregation pass that follows holds two pages (the sorted
// run's read-ahead and one output page), taken from the operator's own
// memory contract while it is still attached, and the run writer's output
// block beside them (mergeBlockPages) — under WithPool the operator
// leaves the pool, and its trace span closes, only once the result run is
// durable. Cancellation is observed both by the underlying sort and between
// aggregation pages.
func GroupBy(ctx context.Context, input Iterator, agg Aggregator, opts ...Option) (*Result, error) {
	return runOp(ctx, applyOptions(opts), "groupby", func(env *core.Env, cfg core.SortConfig, o config) (*Result, error) {
		env.In = &pageInput{it: input, size: o.pageRecords}
		sorted, err := sortResult(core.ExternalSort(env, cfg))
		if err != nil {
			return nil, err
		}
		sorted.store = env.Store
		defer sorted.Close()
		// Best effort, like every transient buffer outside a phase: a pool
		// with nothing to spare must not deadlock the pass.
		if got := env.Mem.Acquire(2); got > 0 {
			defer env.Mem.Yield(got)
		}
		env.In = &pageInput{it: &groupIterator{in: sorted.Iterator(), agg: agg}, size: o.pageRecords}
		out, err := sortResult(core.WriteRun(env, cfg.MergeBlockPages))
		if err != nil {
			return nil, err
		}
		out.Stats = sorted.Stats
		return out, nil
	})
}

// groupIterator folds each run of equal keys of a sorted iterator into one
// record. Only one group is open at a time; head is the first record of the
// next one.
type groupIterator struct {
	in   Iterator
	agg  Aggregator
	head Record
	open bool
}

func (g *groupIterator) Next() (Record, bool, error) {
	if !g.open {
		rec, ok, err := g.in.Next()
		if err != nil || !ok {
			return Record{}, false, err
		}
		g.head = rec
	}
	key := g.head.Key
	g.agg.Start(g.head)
	for {
		rec, ok, err := g.in.Next()
		if err != nil {
			return Record{}, false, err
		}
		if g.head, g.open = rec, ok; !ok || rec.Key != key {
			return Record{Key: key, Payload: g.agg.Finish(key)}, true, nil
		}
		g.agg.Add(rec)
	}
}
