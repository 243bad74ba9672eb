package masort

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// pipelineDeadline bounds every pipeline case. A case that reaches it has
// waited on itself, which is the failure these tests exist to catch.
const pipelineDeadline = 10 * time.Second

// pipe runs the query plan WithBudget and WithPool promise: an inner Sort
// of in on contract, whose held Result feeds an outer Quicksort Sort (which
// cuts the sorted stream into memory-sized runs, so both merge) on the same
// contract. at, if set, is called at each of the outer Sort's events with
// its count so far; first, if set, starts the inner iterator before the
// outer Sort sees it and returns what it read. pipe returns the outer
// Sort's output (after the records first read) and its error, with the
// time the outer Sort call took.
func pipe(t *testing.T, store streamStore, in []Record, contract Option, at func(n int), first func(Iterator) []Record) ([]Record, time.Duration, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), pipelineDeadline)
	defer cancel()
	opts := []Option{WithPageRecords(32), WithStore(store), contract}
	in1, err := Sort(ctx, NewSliceIterator(in), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := in1.Close(); err != nil {
			t.Error(err)
		}
	}()
	it := in1.Iterator()
	var out []Record
	if first != nil {
		out = first(it)
	}
	events := 0
	start := time.Now()
	res, err := Sort(ctx, it, append(opts, WithMethod(Quicksort), WithEvents(func(Event) {
		if events++; at != nil {
			at(events)
		}
	}))...)
	took := time.Since(start)
	if err != nil {
		return nil, took, err
	}
	defer res.Close()
	for rec, err := range res.All() {
		if err != nil {
			return nil, took, err
		}
		out = append(out, rec)
	}
	if ctx.Err() != nil {
		t.Fatal("the pipeline reached its deadline")
	}
	return out, took, nil
}

// noDeadline fails the test on an error that is the pipeline waiting out its
// deadline, or any other error.
func noDeadline(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the pipeline waited out its deadline: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestPipelineOnOneBudget: an outer Sort reads an inner Sort's held Result
// on one 8-page Budget, which is resized to t at the outer's 20th event. At
// every t down to the floor both complete with the oracle's output: each
// operator keeps a floor of its own, the target rising to two floors when
// it must, so neither waits for the other on their one goroutine.
func TestPipelineOnOneBudget(t *testing.T) {
	in := randomRecords(6400, 67, 8)
	want := oracle(in)
	for _, be := range streamBackends {
		for _, target := range []int{8, 6, 5, 4, 3} {
			t.Run(fmt.Sprintf("%s/t%d", be.name, target), func(t *testing.T) {
				store := be.open(t)
				budget := NewBudget(8)
				out, _, err := pipe(t, store, in, WithBudget(budget), func(n int) {
					if n == 20 {
						budget.Resize(target)
					}
				}, nil)
				noDeadline(t, err)
				sameOutput(t, out, want)
				if got := budget.Target(); got != max(target, 2*budget.Floor()) {
					t.Fatalf("target %d after Resize(%d) under two operators, want two floors at least", got, target)
				}
				if budget.Granted() != 0 || store.Live() != 0 {
					t.Fatalf("%d pages granted, %d runs live", budget.Granted(), store.Live())
				}
			})
		}
	}
}

// TestPipelineOnOnePool: the same plan on one Pool of each total and
// admission policy. The outer Sort must not queue behind its own input: it
// completes, or fails with ErrPoolSaturated at once when the pool cannot
// cover both floors.
func TestPipelineOnOnePool(t *testing.T) {
	in := randomRecords(6400, 67, 8)
	want := oracle(in)
	for _, be := range streamBackends {
		for _, total := range []int{8, 6, 5} {
			for _, policy := range []AdmissionPolicy{QueueWhenFull, RejectWhenFull} {
				t.Run(fmt.Sprintf("%s/t%d/policy%d", be.name, total, policy), func(t *testing.T) {
					store := be.open(t)
					pool := NewPool(total, WithAdmissionPolicy(policy))
					out, took, err := pipe(t, store, in, WithPool(pool), nil, nil)
					if errors.Is(err, ErrPoolSaturated) {
						if total >= 2*pool.Floor() || took > 100*time.Millisecond {
							t.Fatalf("ErrPoolSaturated after %v on a %d-page pool", took, total)
						}
						return
					}
					noDeadline(t, err)
					sameOutput(t, out, want)
					if pool.Ops() != 0 || store.Live() != 0 {
						t.Fatalf("%d operators admitted, %d runs live", pool.Ops(), store.Live())
					}
				})
			}
		}
	}
}

// TestPipelineReadsAStartedStep: the inner iterator has handed out a record
// — its step has started and holds all 8 pages — before the outer Sort
// reads it on the same Budget or Pool. The step sheds down to its share
// before the outer Sort asks for its first page, and the outer completes.
func TestPipelineReadsAStartedStep(t *testing.T) {
	in := randomRecords(6400, 67, 8)
	want := oracle(in)
	for _, be := range streamBackends {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pooled=%v", be.name, pooled), func(t *testing.T) {
				store := be.open(t)
				contract := WithBudget(NewBudget(8))
				if pooled {
					contract = WithPool(NewPool(8))
				}
				out, _, err := pipe(t, store, in, contract, nil, func(it Iterator) []Record {
					rec, ok, err := it.Next()
					if err != nil || !ok {
						t.Fatalf("first record: %v, %v", ok, err)
					}
					if got := it.(*stepIterator).mem.Granted(); got != 8 {
						t.Fatalf("the started step holds %d pages, want all 8", got)
					}
					return []Record{rec}
				})
				noDeadline(t, err)
				sameOutput(t, out, want)
			})
		}
	}
}
