package masort

import (
	"context"
	"iter"
)

// Codec converts between a user type T and the engine's byte-oriented
// records, letting arbitrary Go types flow through the memory-adaptive
// engine without the engine knowing about them.
//
//   - Key extracts the 64-bit sort key.
//   - Encode appends T's payload encoding to dst and returns the extended
//     slice (append-style; dst may be nil).
//   - Decode reconstructs T from a key and its payload encoding.
//
// Records order by Key first, then by payload bytes: for equal-key values
// to order meaningfully, the payload encoding should be order-preserving
// (otherwise equal-key order is merely deterministic, not semantic).
type Codec[T any] interface {
	Key(v T) Key
	Encode(dst []byte, v T) []byte
	Decode(key Key, payload []byte) (T, error)
}

// FuncCodec assembles a Codec from three functions. EncodeFunc and
// DecodeFunc may be nil for key-only types (the payload stays empty and
// Decode returns the zero T with only the key meaningful — pair it with a
// KeyFunc whose key alone identifies the value).
type FuncCodec[T any] struct {
	KeyFunc    func(v T) Key
	EncodeFunc func(dst []byte, v T) []byte
	DecodeFunc func(key Key, payload []byte) (T, error)
}

// Key implements Codec.
func (c FuncCodec[T]) Key(v T) Key { return c.KeyFunc(v) }

// Encode implements Codec.
func (c FuncCodec[T]) Encode(dst []byte, v T) []byte {
	if c.EncodeFunc == nil {
		return dst
	}
	return c.EncodeFunc(dst, v)
}

// Decode implements Codec.
func (c FuncCodec[T]) Decode(key Key, payload []byte) (T, error) {
	if c.DecodeFunc == nil {
		var zero T
		return zero, nil
	}
	return c.DecodeFunc(key, payload)
}

// TypedResult is a Result whose records decode back to T through the codec
// the sort ran with. The embedded Result exposes the raw record view,
// statistics, and Close.
type TypedResult[T any] struct {
	*Result
	codec Codec[T]
}

// All streams the decoded values in sorted order. The sequence yields at
// most one non-nil error, as its final pair.
func (r *TypedResult[T]) All() iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		var zero T
		for rec, err := range r.Result.All() {
			if err != nil {
				yield(zero, err)
				return
			}
			v, err := r.codec.Decode(rec.Key, rec.Payload)
			if !yield(v, err) || err != nil {
				return
			}
		}
	}
}

// SortT externally sorts a typed input sequence through the adaptive
// engine: values are encoded to records on the way in and decoded on the
// way out. The input's first non-nil error aborts the sort. Cancellation
// and options behave exactly as for Sort.
func SortT[T any](ctx context.Context, input iter.Seq2[T, error], c Codec[T], opts ...Option) (*TypedResult[T], error) {
	encoded := FromSeq(func(yield func(Record, error) bool) {
		for v, err := range input {
			if err != nil {
				yield(Record{}, err)
				return
			}
			rec := Record{Key: c.Key(v), Payload: c.Encode(nil, v)}
			if !yield(rec, nil) {
				return
			}
		}
	})
	o := applyOptions(opts)
	o.ownPayloads = true
	res, err := sortNamed(ctx, encoded, o, "sort")
	if err != nil {
		// An aborted sort (cancellation, bad option, store failure) leaves
		// the input mid-stream; release the pull coroutine holding it.
		encoded.(*seqIterator).stop()
		return nil, err
	}
	return &TypedResult[T]{Result: res, codec: c}, nil
}

// SortSliceT sorts a slice of T and returns the sorted slice — the typed
// counterpart of SortSlice.
func SortSliceT[T any](ctx context.Context, vs []T, c Codec[T], opts ...Option) ([]T, error) {
	input := func(yield func(T, error) bool) {
		for _, v := range vs {
			if !yield(v, nil) {
				return
			}
		}
	}
	res, err := SortT(ctx, input, c, opts...)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	out := make([]T, 0, len(vs))
	for v, err := range res.All() {
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
