// Concurrentpool: the multiprogramming scenario the paper opens with —
// many sorts competing for one fluctuating region of buffer memory — run
// on the real engine. Eight sorts share one masort.Budget that queues
// operators when full (QueueWhenFull) and holds a fraction of what they
// would use standalone, while an "application" goroutine repeatedly
// reserves pages away from them and gives the pages back, as a buffer
// manager serving higher-priority transactions would.
//
// Each sort is admitted to the budget, entitled to an equal share that
// shifts as siblings start and finish and as reservations come and go,
// and adapts with dynamic splitting. The printed per-operator stats show
// the arbitration at work: admission waits, re-grants after shedding,
// and blocking waits while the budget was tight. The program exits
// non-zero unless every sort's output is sorted and complete, no sort held
// more than the budget at once, and no operator is left on the budget.
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
	sorts      = 8
	poolPages  = 48 // standalone each sort would take 32 → 256 combined
	nRecords   = 300_000
	appPattern = 16 // largest application reservation
)

func records(seed uint64) []masort.Record {
	rng := rand.New(rand.NewPCG(seed, 0))
	recs := make([]masort.Record, nRecords)
	for i := range recs {
		recs[i] = masort.Record{Key: rng.Uint64()}
	}
	return recs
}

// app plays the competing transactions of the paper's buffer-manager
// protocol: reserve a chunk of the budget, hold it briefly, release it.
func app(ctx context.Context, budget *masort.Budget, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewPCG(42, 0))
	for {
		select {
		case <-stop:
			return
		default:
		}
		got, err := budget.Reserve(ctx, 1+rng.IntN(appPattern))
		if err != nil {
			return
		}
		if got > 0 {
			time.Sleep(time.Duration(rng.IntN(500)) * time.Microsecond)
			budget.Release(got)
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func main() {
	budget := masort.NewBudget(poolPages, masort.WithAdmissionPolicy(masort.QueueWhenFull))
	fmt.Printf("sorting %d×%d records under one %d-page budget (standalone: %d pages each)\n\n",
		sorts, nRecords, poolPages, 32)

	ctx := context.Background()
	stop := make(chan struct{})
	var appWG sync.WaitGroup
	appWG.Add(1)
	go app(ctx, budget, stop, &appWG)

	start := time.Now()
	var wg sync.WaitGroup
	type report struct {
		id      int
		elapsed time.Duration
		stats   masort.Stats
		pool    masort.PoolStats
	}
	reports := make([]report, sorts)
	for i := 0; i < sorts; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := records(uint64(7 + i))
			t0 := time.Now()
			res, err := masort.Sort(ctx, masort.NewSliceIterator(recs),
				masort.WithPageRecords(256),
				masort.WithBudget(budget),
			)
			if err != nil {
				log.Fatalf("sort %d: %v", i, err)
			}
			defer res.Close()
			// The last merge step runs as the output is read, still
			// admitted to the budget: the stats are final once it is done.
			out, err := masort.Drain(res.Iterator())
			if err != nil {
				log.Fatalf("sort %d: %v", i, err)
			}
			if len(out) != nRecords {
				log.Fatalf("sort %d: %d records out, want %d", i, len(out), nRecords)
			}
			for j := 1; j < len(out); j++ {
				if masort.Less(out[j], out[j-1]) {
					log.Fatalf("sort %d: output unsorted at record %d", i, j)
				}
			}
			if res.Pool.MaxGranted > poolPages {
				log.Fatalf("sort %d: held %d pages at once, more than the %d-page budget", i, res.Pool.MaxGranted, poolPages)
			}
			reports[i] = report{id: i, elapsed: time.Since(t0), stats: res.Stats, pool: *res.Pool}
		}()
	}
	wg.Wait()
	close(stop)
	appWG.Wait()

	fmt.Printf("%-4s %10s %8s %7s %7s %9s %7s %9s %10s\n",
		"sort", "elapsed", "admit", "runs", "splits", "combines", "waits", "waittime", "maxgranted")
	for _, r := range reports {
		fmt.Printf("%-4d %10v %8v %7d %7d %9d %7d %9v %10d\n",
			r.id, r.elapsed.Round(time.Millisecond), r.pool.AdmissionWait.Round(time.Microsecond),
			r.stats.Runs, r.stats.Splits, r.stats.Combines,
			r.pool.Waits, r.pool.WaitTime.Round(time.Millisecond), r.pool.MaxGranted)
	}
	fmt.Printf("\nall %d sorts done in %v; operators on the budget now %d, reservations rejected %d\n",
		sorts, time.Since(start).Round(time.Millisecond), budget.Ops(), budget.RejectedReservations())
	fmt.Println("(splits/combines are the engine adapting to the shifting share;")
	fmt.Println(" waits are stalls while the budget was promised to reservations or siblings)")
	if n := budget.Ops(); n != 0 {
		log.Fatalf("%d operators still on the budget", n)
	}
}
