// Package pagecodec implements the binary page framing shared by the
// disk-backed run stores: a varint record count followed by, per record, an
// 8-byte little-endian key, a varint payload length and the payload bytes.
//
// The codec is allocation-conscious by design. Encoding appends to a
// caller-provided buffer (so write buffers can be pooled). Decoding writes
// over a caller-provided record array (so read frames can be recycled) and
// comes in two forms. DecodePageInto is zero-copy: payloads are sub-slices
// of the encoded buffer, so a page decodes with at most one record-slice
// allocation — none when the array is large enough — and the encoded buffer
// belongs to the decoded page from then on: it must not be mutated while the
// records are live. That is the form for bytes that stay put (a memory
// mapping). DecodePageCopy decodes the same frame and then moves the
// payloads, back to back, into a caller-provided arena — allocated at
// exactly the payload total when the one handed in is too small — so the
// encoded buffer is dead when it returns and can serve the next read, and
// what a reader may keep is the payloads, not keys, varints and a CRC around
// them. That is the form for bytes read into memory.
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

const (
	// sumMarker is the version byte opening a checksummed frame.
	sumMarker = 0xA5
	// sumOverhead is the framing cost of a checksummed page: the marker
	// byte plus a 4-byte little-endian CRC32-Castagnoli of the body.
	sumOverhead = 5
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendBody appends the frame body of pg to buf and returns the extended
// buffer. It never fails: the encoding is defined for every page.
func appendBody(buf []byte, pg core.Page) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pg)))
	for _, rec := range pg {
		buf = binary.LittleEndian.AppendUint64(buf, rec.Key)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Payload)))
		buf = append(buf, rec.Payload...)
	}
	return buf
}

// EncodedSize returns the exact size of pg's frame body: the bytes that
// carry records, without the frame overhead.
func EncodedSize(pg core.Page) int {
	n := uvarintLen(uint64(len(pg)))
	for _, rec := range pg {
		n += 8 + uvarintLen(uint64(len(rec.Payload))) + len(rec.Payload)
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

// decodeBody decodes one frame body from the front of buf into the array
// behind into; aliasBytes and read are as DecodePageInto documents them.
func decodeBody(into core.Page, buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, 0, fmt.Errorf("pagecodec: bad record count")
	}
	pos := n
	if cnt > uint64(len(buf)) { // each record takes at least one byte
		return nil, 0, 0, fmt.Errorf("pagecodec: record count %d exceeds buffer", cnt)
	}
	pg = into[:0]
	if uint64(cap(pg)) < cnt {
		pg = make(core.Page, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		if pos+8 > len(buf) {
			return nil, 0, 0, fmt.Errorf("pagecodec: truncated key at record %d", i)
		}
		key := binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
		plen, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, 0, 0, fmt.Errorf("pagecodec: bad payload length at record %d", i)
		}
		pos += n
		if plen > uint64(len(buf)-pos) {
			return nil, 0, 0, fmt.Errorf("pagecodec: truncated payload at record %d", i)
		}
		var payload []byte
		if plen > 0 {
			payload = buf[pos : pos+int(plen) : pos+int(plen)]
			aliasBytes += int(plen)
			pos += int(plen)
		}
		pg = append(pg, core.Record{Key: key, Payload: payload})
	}
	return pg, aliasBytes, pos, nil
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
// by a fresh one only when its capacity is too small for the page. After a
// failed decode the array holds nothing live and may be reused.
//
// Payloads are zero-copy sub-slices of buf: the returned aliasBytes is the
// total number of payload bytes aliasing buf. When aliasBytes is zero the
// caller may recycle buf immediately; otherwise buf is owned by the decoded
// page until every record referencing it is dead. read is the number of
// bytes consumed from buf, frame overhead included.
func DecodePageInto(into core.Page, buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	if len(buf) < sumOverhead {
		return nil, 0, 0, fmt.Errorf("pagecodec: frame truncated to %d bytes: %w", len(buf), ErrChecksum)
	}
	if buf[0] != sumMarker {
		return nil, 0, 0, fmt.Errorf("pagecodec: bad frame marker %#02x: %w", buf[0], ErrChecksum)
	}
	want := binary.LittleEndian.Uint32(buf[1:])
	body := buf[sumOverhead:]
	pg, aliasBytes, read, err = decodeBody(into, body)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%v: %w", err, ErrChecksum)
	}
	if got := crc32.Checksum(body[:read], castagnoli); got != want {
		return nil, 0, 0, fmt.Errorf("pagecodec: crc %08x != stored %08x: %w", got, want, ErrChecksum)
	}
	return pg, aliasBytes, sumOverhead + read, nil
}

// DecodePageCopy is DecodePageInto for a buffer the caller wants back: it
// decodes and verifies exactly as DecodePageInto does — the same records,
// the same read, an error on exactly the same frames — and then copies the
// payloads back to back into the array behind arena (contents dead, like
// into's), which is replaced by a fresh one of exactly the payload total
// when its capacity is too small. Each payload is a three-index slice of
// the arena, so appending to one cannot reach its neighbour, and no record
// aliases buf when the call returns. The arena comes back sliced to the
// bytes in use; after a failed decode it comes back as it was handed in,
// with nothing live in it.
func DecodePageCopy(into core.Page, arena, buf []byte) (pg core.Page, _ []byte, read int, err error) {
	pg, total, read, err := DecodePageInto(into, buf)
	if err != nil {
		return nil, arena, 0, err
	}
	if cap(arena) < total {
		arena = make([]byte, 0, total)
	}
	arena = arena[:0]
	for i := range pg {
		if p := pg[i].Payload; p != nil {
			at := len(arena)
			arena = append(arena, p...)
			pg[i].Payload = arena[at:len(arena):len(arena)]
		}
	}
	return pg, arena, read, nil
}
