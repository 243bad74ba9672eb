package main

import (
	"fmt"
	"time"

	"github.com/memadapt/masort"
	"github.com/memadapt/masort/internal/pagecodec"
)

const (
	probePages  = 1024 // the workload's first pages, what both probes move
	probeRounds = 5    // each probe reports the median round
	probeBatch  = 6    // pages per append: the engine's repl6 write block
)

// probePagesOf slices the first probePages pages out of the input.
func probePagesOf(recs []masort.Record) []masort.Page {
	var pages []masort.Page
	for off := 0; off+pageRecords <= len(recs) && len(pages) < probePages; off += pageRecords {
		pages = append(pages, masort.Page(recs[off:off+pageRecords]))
	}
	return pages
}

// probeCodec times the page codec on its own by calling it the way
// FileStore does: checksummed encode into a reused buffer, checksummed
// decode of each encoded page.
func probeCodec(pages []masort.Page, m map[string]float64) error {
	var encNs, decNs []float64
	var encoded [][]byte
	var bytes, records int
	for _, pg := range pages {
		encoded = append(encoded, pagecodec.AppendPageSum(nil, pg))
		bytes += len(encoded[len(encoded)-1])
		records += len(pg)
	}
	var buf []byte
	for round := 0; round < probeRounds; round++ {
		start := time.Now()
		for _, pg := range pages {
			buf = pagecodec.AppendPageSum(buf[:0], pg)
		}
		encNs = append(encNs, float64(time.Since(start))/float64(len(pages)))

		start = time.Now()
		for i, b := range encoded {
			pg, _, _, err := pagecodec.DecodePageSum(b)
			if err != nil || len(pg) != len(pages[i]) {
				return fmt.Errorf("codec probe: page %d does not round-trip: %v", i, err)
			}
		}
		decNs = append(decNs, float64(time.Since(start))/float64(len(pages)))
	}
	m["pagecodec.encode_ns_per_page"] = summarize(encNs).Median
	m["pagecodec.decode_ns_per_page"] = summarize(decNs).Median
	m["pagecodec.encoded_bytes_per_record"] = float64(bytes) / float64(records)
	return nil
}

// probeStore times a bare store of the workload's kind the way the engine
// drives one: one append batch in flight while writing, one page of
// read-ahead while reading.
func (r *runner) probeStore(pages []masort.Page, m map[string]float64) error {
	var bytes int
	for _, pg := range pages {
		bytes += pagecodec.EncodedSizeSum(pg)
	}
	mb := float64(bytes) / 1e6
	var wr, rd []float64
	for round := 0; round < probeRounds; round++ {
		b, err := r.openBacking()
		if err != nil {
			return err
		}
		w, d, err := probeStoreOnce(b.store(), pages)
		if cerr := b.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		wr = append(wr, mb/w.Seconds())
		rd = append(rd, mb/d.Seconds())
	}
	m["store.raw_write_mb_per_s"] = summarize(wr).Median
	m["store.raw_read_mb_per_s"] = summarize(rd).Median
	return nil
}

func probeStoreOnce(s masort.RunStore, pages []masort.Page) (write, read time.Duration, err error) {
	id, err := s.Create()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for off := 0; off < len(pages); off += probeBatch {
		tok, err := s.Append(id, pages[off:min(off+probeBatch, len(pages))])
		if err != nil {
			return 0, 0, err
		}
		if err := tok.Wait(); err != nil {
			return 0, 0, err
		}
	}
	write = time.Since(start)

	start = time.Now()
	ahead := s.ReadAsync(id, 0)
	for i := range pages {
		tok := ahead
		if i+1 < len(pages) {
			ahead = s.ReadAsync(id, i+1)
		}
		pg, err := tok.Wait()
		if err != nil {
			return 0, 0, err
		}
		if len(pg) != len(pages[i]) {
			return 0, 0, fmt.Errorf("page %d read back with %d records, want %d", i, len(pg), len(pages[i]))
		}
	}
	read = time.Since(start)
	return write, read, s.Free(id)
}
