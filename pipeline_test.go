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

// pipe runs the query plan WithBudget promises: an inner Sort
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
// on one AdmitAll Budget of 8 pages, which is resized to t at the outer's
// 20th event. At every t down to the floor both complete with the oracle's
// output: each operator keeps a floor of its own, the target rising to two
// floors when it must, so neither waits for the other on their one
// goroutine.
func TestPipelineOnOneBudget(t *testing.T) { pipelineMatrix(t, AdmitAll) }

// TestPipelineOnOnePool: the same plan on one Budget of each total that
// queues (policy0) or rejects (policy1) when full. The outer Sort must not
// queue behind its own input: it completes, or fails with ErrPoolSaturated
// at once when the budget cannot cover both floors.
func TestPipelineOnOnePool(t *testing.T) { pipelineMatrix(t, QueueWhenFull, RejectWhenFull) }

// pipelineMatrix runs the pipeline over policy × target × store, the
// policy named by its index when there are several.
func pipelineMatrix(t *testing.T, policies ...AdmissionPolicy) {
	in := randomRecords(6400, 67, 8)
	want := SortedCopy(in)
	for _, be := range streamBackends {
		for i, policy := range policies {
			targets := []int{8, 6, 5}
			if policy == AdmitAll {
				targets = []int{8, 6, 5, 4, 3}
			}
			for _, target := range targets {
				name := fmt.Sprintf("%s/t%d", be.name, target)
				if len(policies) > 1 {
					name += fmt.Sprintf("/policy%d", i)
				}
				t.Run(name, func(t *testing.T) {
					store := be.open(t)
					budget := NewBudget(target, WithAdmissionPolicy(policy))
					var at func(int)
					if policy == AdmitAll { // 8 pages, resized to the target at the 20th event
						budget.Resize(8)
						at = func(n int) {
							if n == 20 {
								budget.Resize(target)
							}
						}
					}
					out, took, err := pipe(t, store, in, WithBudget(budget), at, nil)
					if errors.Is(err, ErrPoolSaturated) {
						if policy == AdmitAll || target >= 2*minFloor || took > 100*time.Millisecond {
							t.Fatalf("ErrPoolSaturated after %v on a %d-page budget", took, target)
						}
						return
					}
					noDeadline(t, err)
					SameRecords(t, out, want)
					if got := budget.Target(); policy == AdmitAll && got != max(target, 2*minFloor) {
						t.Fatalf("target %d after Resize(%d) under two operators, want two floors at least", got, target)
					}
					if l := Leftovers(budget); l != "" || store.Live() != 0 {
						t.Fatalf("%s; %d runs live", l, store.Live())
					}
				})
			}
		}
	}
}

// TestPipelineReadsAStartedStep: the inner iterator has handed out a record
// — its step has started and holds all 8 pages — before the outer Sort
// reads it on the same Budget, admitting all or queueing (pooled). The step sheds down to its share
// before the outer Sort asks for its first page, and the outer completes.
func TestPipelineReadsAStartedStep(t *testing.T) {
	in := randomRecords(6400, 67, 8)
	want := SortedCopy(in)
	for _, be := range streamBackends {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pooled=%v", be.name, pooled), func(t *testing.T) {
				store := be.open(t)
				contract := WithBudget(NewBudget(8))
				if pooled {
					contract = WithBudget(NewBudget(8, WithAdmissionPolicy(QueueWhenFull)))
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
				SameRecords(t, out, want)
			})
		}
	}
}
