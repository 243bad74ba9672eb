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
