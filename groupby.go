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
// returning one record per distinct key (sorted by key). The grouping runs
// on the memory-adaptive external sort, so the budget may be resized while
// it executes; the aggregation pass itself uses two pages. Cancellation is
// observed both by the underlying sort and between aggregation pages.
func GroupBy(ctx context.Context, input Iterator, agg Aggregator, opts ...Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt := applyOptions(opts)
	// The operator announces itself as "groupby"; its trace span covers the
	// sort stage (the dominant cost), not the two-page aggregation pass.
	sorted, err := sortNamed(ctx, input, opt, "groupby")
	if err != nil {
		return nil, err
	}
	defer sorted.Close()
	store := sorted.store
	out, err := store.Create()
	if err != nil {
		return nil, err
	}
	// The aggregation pass materializes into `out`; abandon it on error so
	// a failed or canceled GroupBy leaves no storage behind.
	committed := false
	defer func() {
		if !committed {
			_ = store.Free(out)
		}
	}()
	prec := opt.pageRecords
	if prec <= 0 {
		prec = 256
	}

	var (
		pg      = make(Page, 0, prec)
		pages   int
		tuples  int
		open    bool
		current Key
	)
	flush := func() error {
		if len(pg) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return wrapCtxErr(ctx, err)
		}
		tok, err := store.Append(out, []Page{pg})
		if err != nil {
			return err
		}
		if err := tok.Wait(); err != nil {
			return err
		}
		pages++
		pg = make(Page, 0, prec)
		return nil
	}
	emit := func() error {
		pg = append(pg, Record{Key: current, Payload: agg.Finish(current)})
		tuples++
		if len(pg) == prec {
			return flush()
		}
		return nil
	}

	it := sorted.Iterator()
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch {
		case !open:
			agg.Start(rec)
			current = rec.Key
			open = true
		case rec.Key == current:
			agg.Add(rec)
		default:
			if err := emit(); err != nil {
				return nil, err
			}
			agg.Start(rec)
			current = rec.Key
		}
	}
	if open {
		if err := emit(); err != nil {
			return nil, err
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	committed = true
	return &Result{
		store:    store,
		runs:     []RunID{out},
		Pages:    pages,
		Tuples:   tuples,
		Stats:    sorted.Stats,
		Pool:     sorted.Pool,
		Counters: sorted.Counters,
		Events:   sorted.Events,
	}, nil
}
