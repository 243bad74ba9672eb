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

// FuzzPageCodec holds the frame codec to four properties: arbitrary bytes
// never panic the decoder; decoding into a dirty recycled record array gives
// exactly what decoding into nil gives; a page round-trips; and every
// single-bit flip of a frame is detected — as an error or as a frame that no
// longer fills its extent, the two things the store checks.
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
