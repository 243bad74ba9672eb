// Faulttolerance: an external sort surviving a flaky disk. A scripted
// fault injector (internal/faultinject) fails every 5th page read with a
// transient error; the FileStore's retry policy absorbs each failure with
// a bounded, jitter-free backoff, so the sort completes with correct
// output — the only trace of the trouble is Stats.StoreRetries, one retry
// per injected fault.
//
// The same wiring — StoreConfig.WithFaults + WithRetry — is how the
// engine's fault-schedule tests reproduce every failure path
// deterministically.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"github.com/memadapt/masort"
	"github.com/memadapt/masort/internal/faultinject"
)

const nRecords = 200_000

func main() {
	rng := rand.New(rand.NewPCG(7, 0))
	recs := make([]masort.Record, nRecords)
	for i := range recs {
		recs[i] = masort.Record{Key: rng.Uint64()}
	}

	// Every 5th read fails transiently, thirty times over — a disk having
	// a bad morning, not a dead one.
	inj := faultinject.New(faultinject.Rule{
		Op: faultinject.Read, Every: 5, Count: 30,
		Fault: faultinject.Fault{Err: faultinject.Transient("simulated cable wiggle")},
	})

	store, err := masort.NewStoreConfig().
		WithFaults(inj).
		WithRetry(masort.RetryPolicy{MaxAttempts: 4, Backoff: 2 * time.Millisecond}).
		File("")
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	res, err := masort.Sort(context.Background(), masort.NewSliceIterator(recs),
		masort.WithStore(store),
		masort.WithBudget(masort.NewBudget(16)),
		masort.WithPageRecords(512),
	)
	if err != nil {
		log.Fatalf("sort did not survive the faults: %v", err)
	}
	defer res.Close()

	var prev uint64
	n := 0
	for rec, err := range res.All() {
		if err != nil {
			log.Fatalf("record %d: %v", n, err)
		}
		if n > 0 && rec.Key < prev {
			log.Fatalf("output out of order at record %d", n)
		}
		prev = rec.Key
		n++
	}

	fmt.Printf("sorted %d records across %d runs, %d merge steps\n",
		n, res.Stats.Runs, res.Stats.MergeSteps)
	fmt.Printf("injected faults: %d over %d reads — absorbed by %d store retries\n",
		inj.Injected(), inj.Ops(faultinject.Read), res.Stats.StoreRetries)
	// Every 5th read fails, so no retry meets a second fault: one retry
	// each.
	if inj.Injected() == 0 || res.Stats.StoreRetries != inj.Injected() {
		log.Fatalf("%d store retries for %d injected faults, want one each",
			res.Stats.StoreRetries, inj.Injected())
	}
}
