// Fluctuating: sort while another goroutine repeatedly steals and returns
// memory — the scenario the paper is about. The same workload runs under
// all three merge-phase adaptation strategies so their behavior can be
// compared: dynamic splitting keeps working in shrunken memory by splitting
// merge steps; paging keeps working but re-reads evicted buffers;
// suspension just waits for the memory to come back.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/memadapt/masort"
)

const (
	nRecords = 400_000
	pages    = 48
)

func records() []masort.Record {
	rng := rand.New(rand.NewPCG(7, 0))
	recs := make([]masort.Record, nRecords)
	for i := range recs {
		recs[i] = masort.Record{Key: rng.Uint64()}
	}
	return recs
}

// steal simulates higher-priority transactions: every couple hundred
// microseconds the sort's budget is resized somewhere between the floor and
// the full allocation.
func steal(budget *masort.Budget, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewPCG(99, 0))
	for {
		select {
		case <-stop:
			budget.Resize(pages)
			return
		default:
		}
		budget.Resize(3 + rng.IntN(pages-3))
		time.Sleep(300 * time.Microsecond)
	}
}

func run(name string, adapt masort.Adaptation, recs []masort.Record) {
	budget := masort.NewBudget(pages)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go steal(budget, stop, &wg)

	// Runs live in real files so the cost of re-reading evicted buffers is
	// actual disk I/O, as in the paper.
	store, err := masort.NewStoreConfig().File("")
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	start := time.Now()
	res, err := masort.Sort(context.Background(), masort.NewSliceIterator(recs),
		masort.WithAdaptation(adapt),
		masort.WithPageRecords(256),
		masort.WithBudget(budget),
		masort.WithStore(store),
	)
	if err == nil {
		// The last merge step runs as the output is read, still under the
		// fluctuating budget.
		_, err = masort.Drain(res.Iterator())
	}
	close(stop)
	wg.Wait()
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	defer res.Close()

	s := res.Stats
	fmt.Printf("%-18s %8v  runs=%-4d steps=%-3d splits=%-3d combines=%-3d suspensions=%-3d extraReads=%d\n",
		name, time.Since(start).Round(time.Millisecond),
		s.Runs, s.MergeSteps, s.Splits, s.Combines, s.Suspensions, s.ExtraMergeReads)
}

func main() {
	recs := records()
	fmt.Printf("sorting %d records with a budget fluctuating between 3 and %d pages:\n\n", nRecords, pages)
	run("dynamic-splitting", masort.DynamicSplitting, recs)
	run("mru-paging", masort.MRUPaging, recs)
	run("suspension", masort.Suspension, recs)
	fmt.Println("\n(dynamic splitting reports splits/combines; paging reports extra reads;")
	fmt.Println(" suspension reports how often it had to stop — the paper's Figure 6 in miniature)")
}
