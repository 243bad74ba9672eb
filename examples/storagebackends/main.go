// Storagebackends: one sort, three disk-backed stores — a tour of the
// pluggable run stores behind the StoreConfig builder. The same shuffled
// input is sorted over every disk-backed store the library ships:
//
//   - FileStore: one directory, checksummed frames, buffered writes
//   - StripedStore: the paper's Disks experiment for the real engine —
//     pages striped round-robin over N directories, write bandwidth
//     scaling with devices
//   - MmapStore: zero-copy reads straight out of the page cache
//
// Every store is built from the same StoreConfig, so checksums, retry
// policy and fault hooks apply uniformly.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"github.com/memadapt/masort"
)

const nRecords = 200_000

func input() []masort.Record {
	rng := rand.New(rand.NewPCG(7, 0))
	recs := make([]masort.Record, nRecords)
	for i := range recs {
		recs[i] = masort.Record{Key: rng.Uint64(), Payload: []byte("payload")}
	}
	return recs
}

func runSort(name string, store masort.RunStore) {
	res, err := masort.Sort(context.Background(),
		masort.NewSliceIterator(input()),
		masort.WithStore(store),
		masort.WithBudget(masort.NewBudget(32)),
		masort.WithPageRecords(512))
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	defer res.Close()
	n := 0
	var prev uint64
	for rec, err := range res.All() {
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if rec.Key < prev {
			log.Fatalf("%s: output out of order", name)
		}
		prev = rec.Key
		n++
	}
	fmt.Printf("%-8s %7d records in %d runs, %d merge steps\n",
		name, n, res.Stats.Runs, res.Stats.MergeSteps)
}

func main() {
	// One config for every backend: the knobs compose the same way no
	// matter which store the builder finishes with.
	cfg := masort.NewStoreConfig()

	file, err := cfg.File("") // "" = fresh temp dir, removed on Close
	if err != nil {
		log.Fatal(err)
	}
	defer file.Close()
	runSort("file", file)

	striped, err := cfg.Striped("", "", "") // three "devices"
	if err != nil {
		log.Fatal(err)
	}
	defer striped.Close()
	runSort("striped", striped)

	if mm, err := cfg.Mmap(""); err != nil {
		fmt.Printf("mmap     unavailable on this platform: %v\n", err)
	} else {
		defer mm.Close()
		runSort("mmap", mm)
	}
}
