package pagecodec

import (
	"bytes"
	"errors"
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
		got, alias, read, err := decodeBody(buf[offs[i]:])
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
	pg, alias, _, err := decodeBody(buf)
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
		if _, _, _, err := decodeBody(good[:i]); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", i)
		}
	}
	// A count claiming more records than the buffer can hold must fail
	// before allocating.
	if _, _, _, err := decodeBody([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
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
		got, _, read, err := decodeBody(buf)
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
