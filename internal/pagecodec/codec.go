// Package pagecodec implements the binary page framing shared by the
// disk-backed run stores. A page's body is columnar:
//
//	uvarint n · uvarint u · n × 8-byte LE key · [n × uvarint length] · payloads
//
// The keys come first because they have a fixed stride: a decoder fills them
// with one loop that parses nothing. The payloads follow back to back as one
// column, so a decoder that copies them does one copy a page, not one a
// record. u says how long each payload is: u = L+1 when every payload of the
// page is L bytes long, which is then stored once, and u = 0 when they
// differ, in which case the column of n lengths sits between the keys and
// the payloads. The encoder picks the form per page. A zero-length payload
// decodes as nil.
//
// The codec is allocation-conscious by design. Encoding appends to a
// caller-provided buffer (so write buffers can be pooled). Both decoders are
// one routine: it reads the header (and the lengths column) to learn the
// frame's exact length and verifies the checksum over exactly those bytes
// before it sizes a record array or writes a record, so a corrupt frame costs
// nothing; then it writes over a caller-provided record array (so read frames
// can be recycled). DecodePageInto is zero-copy: payloads are sub-slices of
// the encoded buffer, so a page decodes with at most one record-slice
// allocation — none when the array is large enough — and the encoded buffer
// belongs to the decoded page from then on: it must not be mutated while the
// records are live. That is the form for bytes that stay put (a memory
// mapping). DecodePageCopy first copies the payload column into a
// caller-provided arena — allocated at exactly the payload total when the one
// handed in is too small — and points the payloads there, so the encoded
// buffer is dead when it returns and can serve the next read, and what a
// reader may keep is the payloads, not the keys, lengths and CRC around them.
// That is the form for bytes read into memory.
//
// On the wire the body described above never travels bare: the frame
// (AppendPageSum/DecodePageInto/DecodePageCopy) prefixes it with a one-byte version marker
// and a CRC32-Castagnoli of the body, so silent corruption (bit rot, torn
// reads) is detected instead of decoded.
package pagecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/memadapt/masort/internal/core"
)

// ErrChecksum is returned (wrapped) by the decoders when the frame is
// structurally broken or the body fails CRC verification — the page bytes
// are corrupt and must not be trusted.
var ErrChecksum = errors.New("pagecodec: page checksum mismatch")

// The decoders' failures, made once: a corrupt frame allocates nothing.
var (
	errTruncated = fmt.Errorf("pagecodec: truncated frame: %w", ErrChecksum)
	errMarker    = fmt.Errorf("pagecodec: bad frame marker: %w", ErrChecksum)
	errHeader    = fmt.Errorf("pagecodec: bad record count or length form: %w", ErrChecksum)
	errCount     = fmt.Errorf("pagecodec: record count exceeds frame: %w", ErrChecksum)
	errPayloads  = fmt.Errorf("pagecodec: payloads exceed frame: %w", ErrChecksum)
	errCRC       = fmt.Errorf("pagecodec: crc mismatch: %w", ErrChecksum)
)

const (
	// sumMarker is the version byte opening a checksummed frame: 0xA6, the
	// columnar body. A frame of 0xA5, the record-by-record body before it
	// ([key][uvarint length][payload] per record), is refused as corrupt.
	sumMarker = 0xA6
	// sumOverhead is the framing cost of a checksummed page: the marker
	// byte plus a 4-byte little-endian CRC32-Castagnoli of the body.
	sumOverhead = 5
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// form returns pg's length form: L+1 when every payload is L bytes long, 0
// when they differ.
func form(pg core.Page) uint64 {
	u := uint64(1)
	if len(pg) > 0 {
		u += uint64(len(pg[0].Payload))
	}
	for _, rec := range pg {
		if uint64(len(rec.Payload))+1 != u {
			return 0
		}
	}
	return u
}

// appendBody appends the frame body of pg to buf and returns the extended
// buffer. It never fails: the encoding is defined for every page.
func appendBody(buf []byte, pg core.Page) []byte {
	u := form(pg)
	buf = binary.AppendUvarint(buf, uint64(len(pg)))
	buf = binary.AppendUvarint(buf, u)
	for _, rec := range pg {
		buf = binary.LittleEndian.AppendUint64(buf, rec.Key)
	}
	if u == 0 {
		for _, rec := range pg {
			if l := len(rec.Payload); l < 0x80 {
				buf = append(buf, byte(l))
			} else {
				buf = binary.AppendUvarint(buf, uint64(l))
			}
		}
	}
	for _, rec := range pg {
		buf = append(buf, rec.Payload...)
	}
	return buf
}

// EncodedSize returns the exact size of pg's frame body: the bytes that
// carry records, without the frame overhead.
func EncodedSize(pg core.Page) int {
	u := form(pg)
	n := uvarintLen(uint64(len(pg))) + uvarintLen(u) + 8*len(pg)
	for _, rec := range pg {
		n += len(rec.Payload)
		if u == 0 {
			n += uvarintLen(uint64(len(rec.Payload)))
		}
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decode is both decoders: it decodes one checksummed page from the front of
// buf into the array behind into, pointing the payloads into buf or, when
// copying, into arena after one copy of the payload column. It returns the
// page, the arena (as handed in unless copying succeeded), the payload total
// and the bytes read. Nothing is sized, written or allocated before the CRC
// over the frame's exact length has matched.
func decode(into core.Page, arena, buf []byte, copying bool) (core.Page, []byte, int, int, error) {
	if len(buf) < sumOverhead {
		return nil, arena, 0, 0, errTruncated
	}
	if buf[0] != sumMarker {
		return nil, arena, 0, 0, errMarker
	}
	body := buf[sumOverhead:]
	cnt, a := binary.Uvarint(body)
	if a <= 0 {
		return nil, arena, 0, 0, errHeader
	}
	u, b := binary.Uvarint(body[a:])
	if b <= 0 {
		return nil, arena, 0, 0, errHeader
	}
	keys := a + b
	if cnt > uint64(len(body)-keys)/8 {
		return nil, arena, 0, 0, errCount
	}
	n := int(cnt)
	lens := keys + 8*n
	pay, total := lens, uint64(0)
	if u == 0 {
		for range n {
			if pay < len(body) && body[pay] < 0x80 { // a one-byte length
				total += uint64(body[pay])
				pay++
				continue
			}
			l, k := binary.Uvarint(body[pay:])
			if k <= 0 || l > uint64(len(body)-pay) {
				return nil, arena, 0, 0, errPayloads
			}
			pay += k
			total += l
		}
	} else if n > 0 {
		if u-1 > uint64(len(body)-pay)/uint64(n) {
			return nil, arena, 0, 0, errPayloads
		}
		total = (u - 1) * uint64(n)
	}
	if total > uint64(len(body)-pay) {
		return nil, arena, 0, 0, errPayloads
	}
	end := pay + int(total)
	if crc32.Checksum(body[:end], castagnoli) != binary.LittleEndian.Uint32(buf[1:]) {
		return nil, arena, 0, 0, errCRC
	}

	pg := into[:0]
	if cap(pg) < n {
		pg = make(core.Page, n)
	}
	pg = pg[:n]
	col := body[pay:end]
	if copying {
		if cap(arena) < int(total) {
			// append, not make and copy: a fresh arena is not zeroed first
			// only to be overwritten.
			arena = append([]byte(nil), col...)[:total:total]
		} else {
			arena = append(arena[:0], col...)
		}
		col = arena
	}
	kb := body[keys:lens]
	for i := range pg {
		pg[i] = core.Record{Key: binary.LittleEndian.Uint64(kb[8*i:])}
	}
	switch lb, at := body[lens:pay], 0; {
	case u != 0:
		if l := int(u - 1); l > 0 {
			for i := range pg {
				pg[i].Payload = col[i*l : (i+1)*l : (i+1)*l]
			}
		}
	case len(lb) == n: // every length is one byte
		for i, l := range lb {
			if l > 0 {
				pg[i].Payload = col[at : at+int(l) : at+int(l)]
				at += int(l)
			}
		}
	default:
		for i := range pg {
			l, k := binary.Uvarint(lb)
			if lb = lb[k:]; l > 0 {
				pg[i].Payload = col[at : at+int(l) : at+int(l)]
				at += int(l)
			}
		}
	}
	return pg, arena, int(total), sumOverhead + end, nil
}

// AppendPageSum appends the checksummed encoding of pg to buf: the version
// marker, a little-endian CRC32-Castagnoli over the body, then the body
// itself. It never fails: the encoding is defined for every page.
func AppendPageSum(buf []byte, pg core.Page) []byte {
	start := len(buf)
	buf = append(buf, sumMarker, 0, 0, 0, 0)
	buf = appendBody(buf, pg)
	sum := crc32.Checksum(buf[start+sumOverhead:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start+1:], sum)
	return buf
}

// EncodedSizeSum returns the exact number of bytes AppendPageSum will
// append for pg.
func EncodedSizeSum(pg core.Page) int {
	return sumOverhead + EncodedSize(pg)
}

// DecodePageSum is DecodePageInto with no record array to reuse: the page is
// freshly allocated.
func DecodePageSum(buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	return DecodePageInto(nil, buf)
}

// DecodePageInto decodes one checksummed page from the front of buf,
// verifying the body CRC before returning records. A bad marker, a
// truncated frame, a structurally broken body or a CRC mismatch all return
// an error wrapping ErrChecksum: with a checksummed frame, any decode
// failure means the bytes on disk are not the bytes that were written.
//
// The records are written over the array behind into (its contents are
// dead; a recycled, dirty array decodes exactly like nil), which is replaced
// by a fresh one only when its capacity is too small for the page. A failed
// decode writes no record and allocates nothing.
//
// Payloads are zero-copy sub-slices of buf: the returned aliasBytes is the
// total number of payload bytes aliasing buf. When aliasBytes is zero the
// caller may recycle buf immediately; otherwise buf is owned by the decoded
// page until every record referencing it is dead. read is the number of
// bytes consumed from buf, frame overhead included.
func DecodePageInto(into core.Page, buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	pg, _, aliasBytes, read, err = decode(into, nil, buf, false)
	return pg, aliasBytes, read, err
}

// DecodePageCopy is DecodePageInto for a buffer the caller wants back: it
// decodes and verifies exactly as DecodePageInto does — the same records,
// the same read, an error on exactly the same frames — but copies the
// payload column into the array behind arena (contents dead, like into's),
// which is replaced by a fresh one of exactly the payload total when its
// capacity is too small, and points the payloads there. Each payload is a
// three-index slice of the arena, so appending to one cannot reach its
// neighbour, and no record aliases buf when the call returns. The arena
// comes back sliced to the bytes in use; after a failed decode it comes back
// as it was handed in, with nothing live in it.
func DecodePageCopy(into core.Page, arena, buf []byte) (pg core.Page, _ []byte, read int, err error) {
	pg, arena, _, read, err = decode(into, arena, buf, true)
	return pg, arena, read, err
}
