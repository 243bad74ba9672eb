package masort

import (
	"fmt"
	"testing"
)

// BenchmarkMemStoreForms times a MemStore's path for one 256-record page —
// Append, ReadAsync, Wait and ReleaseRecords — at payloads of 0, 8, 16, 64
// and 1 024 bytes: the first two are encoded, the others held by reference.
// An op is a page, so ns/op is the time a page and B/op ÷ 256 the bytes
// the store allocates a record (the run's index and its occasional
// re-creation included: a run is freed every 64 pages, which keeps the
// store's memory bounded however long the benchmark runs).
func BenchmarkMemStoreForms(b *testing.B) {
	const perPage, runPages = 256, 64
	for _, size := range []int{0, 8, 16, 64, 1024} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			buf := make([]byte, perPage*size)
			pg := make(Page, perPage)
			for i := range pg {
				pg[i] = Record{Key: uint64(i), Payload: buf[i*size : (i+1)*size : (i+1)*size]}
			}
			s := NewMemStore()
			defer s.Close()
			var id RunID
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if i%runPages == 0 {
					if i > 0 {
						if err := s.Free(id); err != nil {
							b.Fatal(err)
						}
					}
					var err error
					if id, err = s.Create(); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Append(id, []Page{pg}); err != nil {
					b.Fatal(err)
				}
				tok := s.ReadAsync(id, i%runPages)
				if _, err := tok.Wait(); err != nil {
					b.Fatal(err)
				}
				tok.(interface{ ReleaseRecords() }).ReleaseRecords()
			}
		})
	}
}

// TestHeldBatchFitsItsSizeClass: a six-page block of 256-record pages with
// 16-byte payloads — what a merge appends at once — is held as a key column
// and a pointer column of 12 288 bytes each, plus under a kilobyte of
// batch header and index entries (288 B; 480 B under the race detector).
// It took 1 280 bytes more while the pointer column held all 1 536
// pointers: an array of pointers over 512 bytes carries an 8-byte header,
// which pushed it into the 13 568-byte size class.
func TestHeldBatchFitsItsSizeClass(t *testing.T) {
	const pages, perPage, payload, runs = 6, 256, 16, 16
	s := NewMemStore()
	defer s.Close()
	recs := randomRecords(pages*perPage, 5, payload)
	batch := make([]Page, pages)
	for i := range batch {
		batch[i] = recs[i*perPage : (i+1)*perPage]
	}
	ids := make([]RunID, runs)
	for i := range ids {
		var err error
		if ids[i], err = s.Create(); err != nil {
			t.Fatal(err)
		}
	}
	before := totalAlloc()
	for _, id := range ids {
		tok, err := s.Append(id, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := tok.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	perBatch := float64(totalAlloc()-before) / runs
	tok := s.ReadAsync(ids[0], pages-1)
	pg, err := tok.Wait()
	if err != nil || &pg[perPage-1].Payload[0] != &recs[len(recs)-1].Payload[0] {
		t.Fatalf("the batch is not held by reference: %v", err)
	}
	t.Logf("%.0f B allocated a held %d-record batch", perBatch, pages*perPage)
	if bound := float64(2*pages*perPage*8 + 1024); perBatch > bound {
		t.Errorf("%.0f B allocated a held %d-record batch, want <= %.0f: two 12 288-byte columns and under a kilobyte", perBatch, pages*perPage, bound)
	}
}
