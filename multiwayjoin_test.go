package masort

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestMultiwayJoinPlan runs examples/multiwayjoin's query plan against an
// oracle: lineitems ⋈ orders on the order id, re-keyed by the customer id
// and joined with customers, two Joins on one Budget that a goroutine
// resizes in [3, 48] pages for the whole query. The output is every
// lineitem once, with its order and customer.
func TestMultiwayJoinPlan(t *testing.T) {
	const nCustomers, nOrders, nLineitems = 2_000, 8_000, 24_000
	rng := rand.New(rand.NewPCG(7, 0))
	customers := make([]Record, nCustomers)
	for i := range customers {
		customers[i] = Record{Key: uint64(i), Payload: fmt.Appendf(nil, "c%d;", i)}
	}
	orders := make([]Record, nOrders)
	custOf := make([]int, nOrders)
	for i := range orders {
		custOf[i] = rng.IntN(nCustomers)
		orders[i] = Record{Key: uint64(i), Payload: fmt.Appendf(nil, "o%d->c%d;", i, custOf[i])}
	}
	lineitems := make([]Record, nLineitems)
	var want []Record
	for i := range lineitems {
		o := rng.IntN(nOrders)
		lineitems[i] = Record{Key: uint64(o), Payload: fmt.Appendf(nil, "l%d;", i)}
		c := custOf[o]
		want = append(want, Record{Key: uint64(c), Payload: fmt.Appendf(nil, "l%d;o%d->c%d;c%d;", i, o, c, c)})
	}
	want = SortedCopy(want)

	store := NewMemStore()
	budget := NewBudget(48)
	opts := []Option{WithPageRecords(64), WithBudget(budget), WithStore(store)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewPCG(9, 9))
		for {
			select {
			case <-stop:
				return
			default:
				budget.Resize(3 + r.IntN(46))
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	ctx := context.Background()
	j1, err := Join(ctx, NewSliceIterator(lineitems), NewSliceIterator(orders), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()
	stage1 := j1.Iterator()
	rekeyed := FuncIterator(func() (Record, bool, error) {
		rec, ok, err := stage1.Next()
		if !ok || err != nil {
			return Record{}, ok, err
		}
		// "l<i>;o<o>->c<c>;": the customer id follows "->c".
		p := string(rec.Payload)
		at := len(p) - 1
		for p[at-1] != 'c' {
			at--
		}
		cust, err := strconv.ParseUint(p[at:len(p)-1], 10, 64)
		return Record{Key: cust, Payload: rec.Payload}, true, err
	})
	j2, err := Join(ctx, rekeyed, NewSliceIterator(customers), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, err := Drain(j2.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(got, ByKeyThenPayload)
	SameRecords(t, got, want)
	if j2.Tuples != nLineitems || budget.Granted() != 0 {
		t.Fatalf("%d rows out, %d pages granted: want %d and none", j2.Tuples, budget.Granted(), nLineitems)
	}
}
