package pagecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"github.com/memadapt/masort/internal/core"
)

func TestRoundTrip(t *testing.T) {
	pages := []core.Page{
		nil,
		{},
		{{Key: 1}},
		{{Key: 1}, {Key: 2, Payload: []byte{}}, {Key: 3, Payload: []byte("abc")}},
		{{Key: ^uint64(0), Payload: bytes.Repeat([]byte{0xAB}, 70000)}},
	}
	var buf []byte
	var offs []int
	for _, pg := range pages {
		if got, want := EncodedSize(pg), len(appendBody(nil, pg)); got != want {
			t.Fatalf("EncodedSize = %d, encoding is %d bytes", got, want)
		}
		offs = append(offs, len(buf))
		buf = appendBody(buf, pg)
	}
	for i, pg := range pages {
		got, alias, read, err := decodeBody(nil, buf[offs[i]:])
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if read != EncodedSize(pg) {
			t.Fatalf("page %d: consumed %d bytes, want %d", i, read, EncodedSize(pg))
		}
		if len(got) != len(pg) {
			t.Fatalf("page %d: %d records, want %d", i, len(got), len(pg))
		}
		wantAlias := 0
		for j := range pg {
			if got[j].Key != pg[j].Key || !bytes.Equal(got[j].Payload, pg[j].Payload) {
				t.Fatalf("page %d record %d: got %+v want %+v", i, j, got[j], pg[j])
			}
			wantAlias += len(pg[j].Payload)
		}
		if alias != wantAlias {
			t.Fatalf("page %d: aliasBytes %d, want %d", i, alias, wantAlias)
		}
	}
}

func TestDecodeZeroCopyAliasing(t *testing.T) {
	buf := appendBody(nil, core.Page{{Key: 7, Payload: []byte("hello")}})
	pg, alias, _, err := decodeBody(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if alias != 5 {
		t.Fatalf("aliasBytes = %d, want 5", alias)
	}
	// The payload must be a true sub-slice: mutating the encoded buffer
	// shows through (this is the documented ownership contract).
	copy(buf[len(buf)-5:], "WORLD")
	if string(pg[0].Payload) != "WORLD" {
		t.Fatalf("payload does not alias the buffer: %q", pg[0].Payload)
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	good := appendBody(nil, core.Page{{Key: 1, Payload: []byte("xyz")}})
	for i := 0; i < len(good); i++ {
		if _, _, _, err := decodeBody(nil, good[:i]); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", i)
		}
	}
	// A count claiming more records than the buffer can hold must fail
	// before allocating.
	if _, _, _, err := decodeBody(nil, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("absurd record count decoded without error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(keys []uint64, payloads [][]byte) bool {
		var pg core.Page
		for i, k := range keys {
			var p []byte
			if i < len(payloads) {
				p = payloads[i]
			}
			pg = append(pg, core.Record{Key: k, Payload: p})
		}
		buf := appendBody(nil, pg)
		got, _, read, err := decodeBody(nil, buf)
		if err != nil || read != len(buf) || len(got) != len(pg) {
			return false
		}
		for i := range pg {
			if got[i].Key != pg[i].Key || !bytes.Equal(got[i].Payload, pg[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSumRoundTrip(t *testing.T) {
	pages := []core.Page{
		nil,
		{},
		{{Key: 1}},
		{{Key: 1}, {Key: 2, Payload: []byte{}}, {Key: 3, Payload: []byte("abc")}},
		{{Key: ^uint64(0), Payload: bytes.Repeat([]byte{0xAB}, 70000)}},
	}
	var buf []byte
	var offs []int
	for _, pg := range pages {
		if got, want := EncodedSizeSum(pg), len(AppendPageSum(nil, pg)); got != want {
			t.Fatalf("EncodedSizeSum = %d, encoding is %d bytes", got, want)
		}
		offs = append(offs, len(buf))
		buf = AppendPageSum(buf, pg)
	}
	for i, pg := range pages {
		got, alias, read, err := DecodePageSum(buf[offs[i]:])
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if read != EncodedSizeSum(pg) {
			t.Fatalf("page %d: consumed %d bytes, want %d", i, read, EncodedSizeSum(pg))
		}
		if len(got) != len(pg) {
			t.Fatalf("page %d: %d records, want %d", i, len(got), len(pg))
		}
		wantAlias := 0
		for j := range pg {
			if got[j].Key != pg[j].Key || !bytes.Equal(got[j].Payload, pg[j].Payload) {
				t.Fatalf("page %d record %d: got %+v want %+v", i, j, got[j], pg[j])
			}
			wantAlias += len(pg[j].Payload)
		}
		if alias != wantAlias {
			t.Fatalf("page %d: aliasBytes %d, want %d", i, alias, wantAlias)
		}
	}
}

// TestSumDetectsEveryBitFlip: flipping any single bit of a checksummed
// frame must surface ErrChecksum — that is the whole point of the frame.
func TestSumDetectsEveryBitFlip(t *testing.T) {
	pg := core.Page{{Key: 42, Payload: []byte("the quick brown fox")}, {Key: 43}}
	good := AppendPageSum(nil, pg)
	for byteIdx := 0; byteIdx < len(good); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[byteIdx] ^= 1 << bit
			if _, _, _, err := DecodePageSum(bad); err == nil {
				t.Fatalf("flip of byte %d bit %d decoded without error", byteIdx, bit)
			} else if !errors.Is(err, ErrChecksum) {
				t.Fatalf("flip of byte %d bit %d: error %v does not wrap ErrChecksum", byteIdx, bit, err)
			}
			if _, _, _, err := DecodePageCopy(nil, nil, bad); !errors.Is(err, ErrChecksum) {
				t.Fatalf("flip of byte %d bit %d, copying decoder: err = %v, want ErrChecksum chain", byteIdx, bit, err)
			}
		}
	}
	// The untouched frame still decodes (the flips above copied it).
	if _, _, _, err := DecodePageSum(good); err != nil {
		t.Fatalf("pristine frame: %v", err)
	}
}

func TestSumTruncation(t *testing.T) {
	good := AppendPageSum(nil, core.Page{{Key: 9, Payload: []byte("xyz")}})
	for i := 0; i < len(good); i++ {
		if _, _, _, err := DecodePageSum(good[:i]); !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d bytes: err = %v, want ErrChecksum chain", i, err)
		}
		arena := dirtyArena()
		if pg, kept, read, err := DecodePageCopy(dirtyFrame(), arena, good[:i]); !errors.Is(err, ErrChecksum) || pg != nil || read != 0 {
			t.Fatalf("truncation at %d bytes, copying decoder: %v, read %d, err = %v, want ErrChecksum chain", i, pg, read, err)
		} else if len(kept) != len(arena) || &kept[0] != &arena[0] {
			t.Fatalf("truncation at %d bytes: the failed decode did not hand the arena back as it was", i)
		}
	}
}

// dirtyArena is a recycled payload arena: stale bytes within its length and
// beyond it.
func dirtyArena() []byte {
	return bytes.Repeat([]byte("stale!"), 8)[:29]
}

// sameCopy reports whether cp — what the copying decoder made of a frame — is
// the page pg with its payloads laid out back to back in arena and nowhere
// else: each a three-index slice, nil where pg has none.
func sameCopy(cp core.Page, arena []byte, pg core.Page) bool {
	at := 0
	for i := range cp {
		p := cp[i].Payload
		if len(p) == 0 {
			if p != nil {
				return false
			}
			continue
		}
		if cap(p) != len(p) || at+len(p) > len(arena) || &p[0] != &arena[at] {
			return false
		}
		at += len(p)
	}
	return at == len(arena) && samePage(cp, pg)
}

// TestDecodePageCopyOwnsItsPayloads: the copying decoder leaves nothing
// behind in the encoded buffer — scribbling over it after a successful
// decode changes no record — and what it allocates is the payload total to
// the byte, or nothing when the arena handed in is large enough.
func TestDecodePageCopyOwnsItsPayloads(t *testing.T) {
	pg := core.Page{
		{Key: 1, Payload: []byte("first")},
		{Key: 2},
		{Key: 3, Payload: []byte{}},
		{Key: 4, Payload: []byte("the fourth")},
	}
	frame := AppendPageSum(nil, pg)
	got, arena, read, err := DecodePageCopy(nil, nil, frame)
	if err != nil || read != len(frame) {
		t.Fatalf("decode: read %d of %d, %v", read, len(frame), err)
	}
	if len(arena) != 15 || cap(arena) != 15 {
		t.Fatalf("fresh arena has len %d, cap %d; want exactly the 15 payload bytes", len(arena), cap(arena))
	}
	for i := range frame {
		frame[i] = 0xEE
	}
	if !sameCopy(got, arena, pg) {
		t.Fatalf("after the encoded buffer was overwritten the page reads %v", got)
	}
	if grown := append(got[0].Payload, '!'); string(got[3].Payload) != "the fourth" || &grown[0] == &got[0].Payload[0] {
		t.Fatal("appending to one payload reached into its neighbour")
	}

	// A recycled arena that is large enough is used as it is, whatever it
	// holds; one that is too small is replaced, not grown.
	frame = AppendPageSum(frame[:0], pg)
	big := dirtyArena()
	got, arena, _, err = DecodePageCopy(dirtyFrame(), big, frame)
	if err != nil || !sameCopy(got, arena, pg) || &arena[0] != &big[0] {
		t.Fatalf("decode into a dirty arena of %d bytes: %v, %v (reused: %v)", cap(big), got, err, &arena[0] == &big[0])
	}
	small := make([]byte, 3, 14)
	got, arena, _, err = DecodePageCopy(nil, small, frame)
	if err != nil || !sameCopy(got, arena, pg) || cap(arena) != 15 {
		t.Fatalf("decode into an arena one byte short: %v, %v, arena cap %d", got, err, cap(arena))
	}

	// No payloads, no arena.
	if _, arena, _, err := DecodePageCopy(nil, nil, AppendPageSum(nil, core.Page{{Key: 7}, {Key: 8}})); err != nil || arena != nil {
		t.Fatalf("a page without payloads allocated an arena of %d bytes (%v)", cap(arena), err)
	}
}

// TestSumFrameIsNotLegacy: a bare body — what the pre-checksum stores wrote
// — must not pass for a frame. (Sniffing would be unsafe the other way
// round too: a body can start with any byte, including the marker.)
func TestSumFrameIsNotLegacy(t *testing.T) {
	pg := core.Page{{Key: 5, Payload: []byte("payload")}}
	legacy := appendBody(nil, pg)
	if _, _, _, err := DecodePageSum(legacy); !errors.Is(err, ErrChecksum) {
		t.Fatalf("legacy frame through DecodePageSum: err = %v, want ErrChecksum chain", err)
	}
}

// dirtyFrame is a recycled record array: live-looking records within its
// length, junk beyond it.
func dirtyFrame() core.Page {
	pg := make(core.Page, 9)
	for i := range pg {
		pg[i] = core.Record{Key: 0xDEAD0000 + uint64(i), Payload: []byte("stale")}
	}
	return pg[:5]
}

// pageFrom carves a page out of fuzz input: per record one length byte, up
// to eight key bytes and the payload.
func pageFrom(data []byte) core.Page {
	var pg core.Page
	for len(data) > 0 && len(pg) < 32 {
		n := int(data[0]) % 20
		data = data[1:]
		var key [8]byte
		data = data[copy(key[:], data):]
		n = min(n, len(data))
		rec := core.Record{Key: binary.LittleEndian.Uint64(key[:])}
		if n > 0 {
			rec.Payload = data[:n]
		}
		pg, data = append(pg, rec), data[n:]
	}
	return pg
}

func samePage(a, b core.Page) bool {
	return slices.EqualFunc(a, b, func(x, y core.Record) bool {
		return x.Key == y.Key && bytes.Equal(x.Payload, y.Payload)
	})
}

// FuzzPageCodec holds the frame codec to five properties: arbitrary bytes
// never panic the decoders; decoding into a dirty recycled record array gives
// exactly what decoding into nil gives; the copying decoder, into a dirty
// record array and a dirty arena, fails on exactly the frames the in-place
// one fails on and otherwise yields the same records and the same read, with
// the payloads back to back in its arena and the encoded bytes dead; a page
// round-trips; and every single-bit flip of a frame is detected — as an
// error or as a frame that no longer fills its extent, the two things the
// store checks.
func FuzzPageCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 'a', 'b', 'c', 0, 9})
	f.Add(AppendPageSum(nil, core.Page{{Key: 42, Payload: []byte("the quick brown fox")}, {Key: 43}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		intoNil, aliasN, readN, errN := DecodePageInto(nil, data)
		intoDirty, aliasD, readD, errD := DecodePageInto(dirtyFrame(), data)
		if (errN == nil) != (errD == nil) || aliasN != aliasD || readN != readD || !samePage(intoNil, intoDirty) {
			t.Fatalf("dirty frame decodes differently: (%v, %d, %d, %v) vs nil's (%v, %d, %d, %v)",
				intoDirty, aliasD, readD, errD, intoNil, aliasN, readN, errN)
		}
		if errN != nil && !errors.Is(errN, ErrChecksum) {
			t.Fatalf("decode error %v does not wrap ErrChecksum", errN)
		}
		// The copy is compared after the source is gone: what it decoded from
		// is a scratch copy of data, scribbled over before anybody looks.
		scratch := append([]byte(nil), data...)
		cp, arena, readC, errC := DecodePageCopy(dirtyFrame(), dirtyArena(), scratch)
		for i := range scratch {
			scratch[i] ^= 0xFF
		}
		if (errC == nil) != (errN == nil) || readC != readN || errC != nil && (cp != nil || !errors.Is(errC, ErrChecksum)) {
			t.Fatalf("copying decoder: (%v, read %d, %v) vs in place (%v, read %d, %v)", cp, readC, errC, intoNil, readN, errN)
		}
		if errC == nil && (!sameCopy(cp, arena, intoNil) || len(arena) != aliasN) {
			t.Fatalf("copying decoder: %v in an arena of %d bytes vs in place %v aliasing %d", cp, len(arena), intoNil, aliasN)
		}

		pg := pageFrom(data)
		frame := AppendPageSum(nil, pg)
		if len(frame) != EncodedSizeSum(pg) {
			t.Fatalf("EncodedSizeSum = %d, frame is %d bytes", EncodedSizeSum(pg), len(frame))
		}
		got, _, read, err := DecodePageInto(dirtyFrame(), frame)
		if err != nil || read != len(frame) || !samePage(got, pg) {
			t.Fatalf("round trip: %v, read %d of %d, %v", err, read, len(frame), got)
		}
		for bit := range 8 * len(frame) {
			frame[bit/8] ^= 1 << (bit % 8)
			if _, _, read, err := DecodePageInto(nil, frame); err == nil && read == len(frame) {
				t.Fatalf("flip of bit %d went undetected", bit)
			}
			frame[bit/8] ^= 1 << (bit % 8)
		}
	})
}
