package pagecodec

import (
	"testing"

	"github.com/memadapt/masort/internal/core"
)

// benchPage is a page of 256 records — the benchmark's page geometry — whose
// i-th payload is size(i) bytes.
func benchPage(size func(i int) int) core.Page {
	pg := make(core.Page, 256)
	for i := range pg {
		pg[i].Key = uint64(i) * 0x9E3779B97F4A7C15
		if n := size(i); n > 0 {
			pg[i].Payload = make([]byte, n)
			for j := range pg[i].Payload {
				pg[i].Payload[j] = byte(i + j)
			}
		}
	}
	return pg
}

// BenchmarkPageCodec times the frame codec a page at a time, through the
// exported calls only, on two pages: 256 records of 16-byte payloads (what
// masbench writes) and 256 records of payloads from 0 to 32 bytes long.
// Each is encoded into a reused buffer (what Append does), decoded in place
// (the mmap view's read), decoded by copy into a recycled arena (the merge's
// read, whose frames come back through Release) and decoded by copy into a
// fresh arena (a drained page's read: the iterator returns the record array,
// never the payload bytes). Run it with
//
//	go test -run '^$' -bench PageCodec -count 10 ./internal/pagecodec
func BenchmarkPageCodec(b *testing.B) {
	for _, c := range []struct {
		name string
		pg   core.Page
	}{
		{"uniform16", benchPage(func(int) int { return 16 })},
		{"variable", benchPage(func(i int) int { return i * 7919 % 33 })},
	} {
		frame := AppendPageSum(nil, c.pg)
		b.Run(c.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, len(frame))
			for range b.N {
				buf = AppendPageSum(buf[:0], c.pg)
			}
		})
		b.Run(c.name+"/decode-in-place", func(b *testing.B) {
			var (
				into core.Page
				err  error
			)
			for range b.N {
				if into, _, _, err = DecodePageInto(into, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode-copy-recycled", func(b *testing.B) {
			var (
				into  core.Page
				arena []byte
				err   error
			)
			for range b.N {
				if into, arena, _, err = DecodePageCopy(into, arena, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode-copy-fresh", func(b *testing.B) {
			var (
				into core.Page
				err  error
			)
			for range b.N {
				if into, _, _, err = DecodePageCopy(into, nil, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
