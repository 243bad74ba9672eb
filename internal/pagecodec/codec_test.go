package pagecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"
	"testing/quick"

	"github.com/memadapt/masort/internal/core"
)

// uniformPage is n records whose payloads are all size bytes long (nil when
// size is 0).
func uniformPage(n, size int) core.Page {
	pg := make(core.Page, n)
	for i := range pg {
		pg[i].Key = uint64(n - i)
		if size > 0 {
			pg[i].Payload = bytes.Repeat([]byte{byte(i)}, size)
		}
	}
	return pg
}

// layoutCases are the pages both round-trip tests run, each with the length
// form the encoder must pick for it: L+1 when every payload is L bytes long,
// 0 when the lengths column is stored.
func layoutCases() []struct {
	pg core.Page
	u  uint64
} {
	oddOne := uniformPage(256, 16)
	oddOne[100].Payload = oddOne[100].Payload[:15]
	allEmpty := uniformPage(5, 0)
	for i := range allEmpty {
		allEmpty[i].Payload = []byte{}
	}
	return []struct {
		pg core.Page
		u  uint64
	}{
		{nil, 1},
		{core.Page{}, 1},
		{core.Page{{Key: 1}}, 1},
		{core.Page{{Key: 1}, {Key: 2, Payload: []byte{}}, {Key: 3, Payload: []byte("abc")}}, 0},
		{core.Page{{Key: ^uint64(0), Payload: bytes.Repeat([]byte{0xAB}, 70000)}}, 70001},
		{uniformPage(256, 16), 17},
		{uniformPage(5, 0), 1},
		{allEmpty, 1},
		{core.Page{{Key: 1}, {Key: 2, Payload: []byte{}}, {Key: 3}, {Key: 4, Payload: []byte{}}}, 1},
		{oddOne, 0},
	}
}

// seal frames a bare body the way AppendPageSum frames an encoded one: the
// marker, then the CRC of every byte of body.
func seal(body []byte) []byte {
	frame := binary.LittleEndian.AppendUint32([]byte{sumMarker}, crc32.Checksum(body, castagnoli))
	return append(frame, body...)
}

// checkDecoded fails t unless got is pg — a zero-length payload decoded as
// nil — with alias payload bytes in all.
func checkDecoded(t *testing.T, i int, got, pg core.Page, alias int) {
	t.Helper()
	if !samePage(got, pg) {
		t.Fatalf("page %d: got %d records, want %d (or the records differ)", i, len(got), len(pg))
	}
	wantAlias := 0
	for j := range pg {
		if len(pg[j].Payload) == 0 && got[j].Payload != nil {
			t.Fatalf("page %d record %d: empty payload decoded as %#v, want nil", i, j, got[j].Payload)
		}
		wantAlias += len(pg[j].Payload)
	}
	if alias != wantAlias {
		t.Fatalf("page %d: aliasBytes %d, want %d", i, alias, wantAlias)
	}
}

// TestRoundTrip: every layout case encodes in the form it should, its body
// is EncodedSize bytes, its frame is the marker and the body's CRC in front
// of the body, and it decodes back.
func TestRoundTrip(t *testing.T) {
	for i, c := range layoutCases() {
		body := appendBody(nil, c.pg)
		if got := EncodedSize(c.pg); got != len(body) {
			t.Fatalf("page %d: EncodedSize = %d, encoding is %d bytes", i, got, len(body))
		}
		if u := form(c.pg); u != c.u {
			t.Fatalf("page %d: length form %d, want %d", i, u, c.u)
		}
		frame := AppendPageSum(nil, c.pg)
		if !bytes.Equal(frame, seal(body)) {
			t.Fatalf("page %d: frame is not marker, CRC and body", i)
		}
		got, alias, read, err := DecodePageInto(dirtyFrame(), frame)
		if err != nil || read != len(frame) {
			t.Fatalf("page %d: read %d of %d, %v", i, read, len(frame), err)
		}
		checkDecoded(t, i, got, c.pg, alias)
	}
}

func TestDecodeZeroCopyAliasing(t *testing.T) {
	for _, c := range []struct {
		pg    core.Page
		alias int
	}{
		{core.Page{{Key: 7, Payload: []byte("hello")}}, 5},
		{core.Page{{Key: 7, Payload: []byte("hi")}, {Key: 8, Payload: []byte("hello")}}, 7},
	} {
		frame := AppendPageSum(nil, c.pg)
		got, alias, _, err := DecodePageInto(nil, frame)
		if err != nil {
			t.Fatal(err)
		}
		if alias != c.alias {
			t.Fatalf("aliasBytes = %d, want %d", alias, c.alias)
		}
		// The payload must be a true sub-slice: mutating the encoded buffer
		// shows through (this is the documented ownership contract).
		copy(frame[len(frame)-5:], "WORLD")
		if string(got[len(got)-1].Payload) != "WORLD" {
			t.Fatalf("payload does not alias the buffer: %q", got[len(got)-1].Payload)
		}
	}
}

// TestDecodeCorruptInputs: a frame whose CRC is right but whose header
// describes more than the frame holds is refused by its structure — no
// multiplication may wrap, no count may claim fewer than eight bytes a
// record — and a frame that fails its CRC is refused before a record array is
// sized or a record written: decoding any single-bit flip into a recycled
// record array and arena allocates nothing and leaves both as they were.
func TestDecodeCorruptInputs(t *testing.T) {
	good := AppendPageSum(nil, core.Page{{Key: 1, Payload: []byte("xyz")}})
	for i := 0; i < len(good); i++ {
		if _, _, _, err := DecodePageInto(nil, good[:i]); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", i)
		}
	}
	key := make([]byte, 8)
	for _, c := range []struct {
		name string
		body []byte
		want error
	}{
		{"overlong count", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, errHeader},
		{"no length form", []byte{0}, errHeader},
		{"absurd count", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 1}, errCount},
		{"three records, two keys", slices.Concat([]byte{3, 1}, key, key), errCount},
		{"count of 1/8 the frame", slices.Concat([]byte{16, 1}, key, key), errCount},
		{"(u-1)·n wraps to 0", slices.Concat([]byte{2, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, key, key), errPayloads},
		{"uniform payloads beyond the frame", slices.Concat([]byte{2, 4}, key, key, []byte("abcde")), errPayloads},
		{"length beyond the frame", slices.Concat([]byte{1, 0}, key, []byte{4, 'a', 'b', 'c'}), errPayloads},
		{"lengths beyond the frame", slices.Concat([]byte{2, 0}, key, key, []byte{2, 2, 'a', 'b', 'c'}), errPayloads},
		{"truncated lengths column", slices.Concat([]byte{2, 0}, key, key, []byte{1}), errPayloads},
	} {
		if _, _, _, err := DecodePageInto(nil, seal(c.body)); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	for _, c := range layoutCases() {
		frame := AppendPageSum(nil, c.pg)
		if len(frame) > 8<<10 {
			continue // the 70 000-byte payload: a flip costs its CRC
		}
		recs, arena := dirtyFrame(), dirtyArena()
		wantRecs, wantArena := slices.Clone(recs[:cap(recs)]), slices.Clone(arena[:cap(arena)])
		undetected := 0
		allocs := testing.AllocsPerRun(1, func() {
			for bit := range 8 * len(frame) {
				frame[bit/8] ^= 1 << (bit % 8)
				if _, _, _, err := DecodePageInto(recs, frame); err == nil {
					undetected++
				}
				if _, _, _, err := DecodePageCopy(recs, arena, frame); err == nil {
					undetected++
				}
				frame[bit/8] ^= 1 << (bit % 8)
			}
		})
		if undetected != 0 || allocs != 0 {
			t.Fatalf("%d-byte frame: %d flips decoded without error, %v allocations", len(frame), undetected, allocs)
		}
		if !samePage(recs[:cap(recs)], wantRecs) || !bytes.Equal(arena[:cap(arena)], wantArena) {
			t.Fatal("a failed decode wrote into the recycled record array or arena")
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(keys []uint64, payloads [][]byte, uniform bool, width uint8) bool {
		var pg core.Page
		for i, k := range keys {
			var p []byte
			if uniform {
				p = bytes.Repeat([]byte{byte(k)}, int(width%24))
			} else if i < len(payloads) {
				p = payloads[i]
			}
			pg = append(pg, core.Record{Key: k, Payload: p})
		}
		if u := form(pg); uniform && len(pg) > 0 && u != uint64(width%24)+1 {
			return false
		}
		frame := AppendPageSum(nil, pg)
		got, _, read, err := DecodePageInto(nil, frame)
		return err == nil && read == len(frame) && read == EncodedSizeSum(pg) && samePage(got, pg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestSumRoundTrip(t *testing.T) {
	cases := layoutCases()
	var buf []byte
	var offs []int
	for _, c := range cases {
		if got, want := EncodedSizeSum(c.pg), len(AppendPageSum(nil, c.pg)); got != want {
			t.Fatalf("EncodedSizeSum = %d, encoding is %d bytes", got, want)
		}
		offs = append(offs, len(buf))
		buf = AppendPageSum(buf, c.pg)
	}
	for i, c := range cases {
		got, alias, read, err := DecodePageSum(buf[offs[i]:])
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if read != EncodedSizeSum(c.pg) {
			t.Fatalf("page %d: consumed %d bytes, want %d", i, read, EncodedSizeSum(c.pg))
		}
		checkDecoded(t, i, got, c.pg, alias)
		cp, arena, read, err := DecodePageCopy(dirtyFrame(), dirtyArena(), buf[offs[i]:])
		if err != nil || read != EncodedSizeSum(c.pg) || !sameCopy(cp, arena, c.pg) {
			t.Fatalf("page %d, copying decoder: read %d, %v", i, read, err)
		}
	}
}

// TestSumDetectsEveryBitFlip: flipping any single bit of a checksummed
// frame must surface ErrChecksum — that is the whole point of the frame.
func TestSumDetectsEveryBitFlip(t *testing.T) {
	for _, pg := range []core.Page{
		{{Key: 42, Payload: []byte("the quick brown fox")}, {Key: 43}},
		{{Key: 42, Payload: []byte("the quick")}, {Key: 43, Payload: []byte("brown fox")}},
	} {
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
// the byte, or nothing when the arena handed in is large enough. Both length
// forms, each with a payload total under the dirty arena's capacity.
func TestDecodePageCopyOwnsItsPayloads(t *testing.T) {
	for _, pg := range []core.Page{
		{
			{Key: 1, Payload: []byte("first")},
			{Key: 2},
			{Key: 3, Payload: []byte{}},
			{Key: 4, Payload: []byte("the fourth")},
		},
		{
			{Key: 1, Payload: []byte("first")},
			{Key: 2, Payload: []byte("other")},
			{Key: 3, Payload: []byte("third")},
			{Key: 4, Payload: []byte("forth")},
		},
	} {
		total := 0
		for _, rec := range pg {
			total += len(rec.Payload)
		}
		frame := AppendPageSum(nil, pg)
		got, arena, read, err := DecodePageCopy(nil, nil, frame)
		if err != nil || read != len(frame) {
			t.Fatalf("decode: read %d of %d, %v", read, len(frame), err)
		}
		if len(arena) != total || cap(arena) != total {
			t.Fatalf("fresh arena has len %d, cap %d; want exactly the %d payload bytes", len(arena), cap(arena), total)
		}
		for i := range frame {
			frame[i] = 0xEE
		}
		if !sameCopy(got, arena, pg) {
			t.Fatalf("after the encoded buffer was overwritten the page reads %v", got)
		}
		last := string(pg[3].Payload)
		if grown := append(got[0].Payload, '!'); string(got[3].Payload) != last || &grown[0] == &got[0].Payload[0] {
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
		small := make([]byte, 3, total-1)
		got, arena, _, err = DecodePageCopy(nil, small, frame)
		if err != nil || !sameCopy(got, arena, pg) || cap(arena) != total {
			t.Fatalf("decode into an arena one byte short: %v, %v, arena cap %d", got, err, cap(arena))
		}
	}

	// No payloads, no arena.
	if _, arena, _, err := DecodePageCopy(nil, nil, AppendPageSum(nil, core.Page{{Key: 7}, {Key: 8}})); err != nil || arena != nil {
		t.Fatalf("a page without payloads allocated an arena of %d bytes (%v)", cap(arena), err)
	}
}

// TestSumFrameIsNotLegacy: neither a bare body — what the pre-checksum
// stores wrote — nor a frame of the record-by-record layout that came before
// the columnar one passes for a frame. (Sniffing would be unsafe the other
// way round too: a body can start with any byte, including the marker.)
func TestSumFrameIsNotLegacy(t *testing.T) {
	pg := core.Page{{Key: 5, Payload: []byte("payload")}}
	legacy := appendBody(nil, pg)
	if _, _, _, err := DecodePageSum(legacy); !errors.Is(err, ErrChecksum) {
		t.Fatalf("legacy frame through DecodePageSum: err = %v, want ErrChecksum chain", err)
	}
	// pg as the 0xA5 layout framed it: marker, CRC, then a count and per
	// record its key, a uvarint length and the payload.
	v5 := []byte{0xa5, 0xba, 0xd8, 0x85, 0x4, 0x1, 0x5, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x7,
		'p', 'a', 'y', 'l', 'o', 'a', 'd'}
	if got, _, _, err := DecodePageSum(v5); !errors.Is(err, ErrChecksum) || got != nil {
		t.Fatalf("0xA5 frame: %v, err = %v, want ErrChecksum chain", got, err)
	}
	if got, _, _, err := DecodePageCopy(nil, nil, v5); !errors.Is(err, ErrChecksum) || got != nil {
		t.Fatalf("0xA5 frame, copying decoder: %v, err = %v, want ErrChecksum chain", got, err)
	}
	// Even under the new marker its CRC-valid body does not come back as
	// records: read as columns it ends before the bytes its CRC covers.
	remarked := append([]byte{sumMarker}, v5[1:]...)
	if got, _, read, err := DecodePageSum(remarked); err == nil && read == len(remarked) {
		t.Fatalf("0xA5 body under the 0xA6 marker decoded as %v", got)
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
// to eight key bytes and the payload. A length byte of 0x80 or more repeats
// the previous record's length, so the fuzzer reaches pages of uniform
// length (and pages with one odd length) without guessing equal bytes.
func pageFrom(data []byte) core.Page {
	var pg core.Page
	n := 0
	for len(data) > 0 && len(pg) < 32 {
		if data[0] < 0x80 {
			n = int(data[0]) % 20
		}
		data = data[1:]
		var key [8]byte
		data = data[copy(key[:], data):]
		m := min(n, len(data))
		rec := core.Record{Key: binary.LittleEndian.Uint64(key[:])}
		if m > 0 {
			rec.Payload = data[:m]
		}
		pg, data = append(pg, rec), data[m:]
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
	f.Add(AppendPageSum(nil, core.Page{{Key: 42, Payload: []byte("quick")}, {Key: 43, Payload: []byte("brown")}}))
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 'a', 'b', 'c', 0x80, 9, 0, 0, 0, 0, 0, 0, 0, 'd', 'e', 'f'})
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
