// Package artifact defines the stable on-disk encoding shared by every
// persisted analysis artifact: low-level wire primitives (varints,
// length-prefixed strings) plus a self-describing, versioned,
// checksummed record container. The per-artifact codecs (ir, pointsto,
// sdg, cha, modref) build their payloads with Writer/Reader (sdg reads
// its rows with a cursor of its own, to the same varint rules) and wrap
// them in Encode/Decode, so a schema change, a truncated file, or a
// flipped bit is always *detected* — decoded into a typed
// *CorruptError — and never misinterpreted as a valid artifact.
package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer builds a payload. The zero value is ready to use; methods
// never fail (encoding is total).
type Writer struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	w.buf = binary.AppendUvarint(w.buf, x)
}

// Int appends a signed integer (zigzag varint).
func (w *Writer) Int(x int) { w.Int64(int64(x)) }

// Int64 appends a signed 64-bit integer (zigzag varint).
func (w *Writer) Int64(x int64) {
	w.buf = binary.AppendVarint(w.buf, x)
}

// Bool appends a boolean.
func (w *Writer) Bool(b bool) {
	if b {
		w.Uvarint(1)
	} else {
		w.Uvarint(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Ints appends a length-prefixed slice of signed integers.
func (w *Writer) Ints(xs []int) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Int(x)
	}
}

// Reader consumes a payload produced by Writer. Every accessor is
// bounds-checked and sticky-error: after the first malformed field all
// further reads return zero values, and Err/Finish report the fault.
// Corrupt input can therefore never panic a decoder — only produce an
// error.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of unread bytes, which bounds how many
// more elements the payload can hold.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Finish returns an error if decoding failed or bytes remain
// unconsumed (trailing garbage is corruption, not slack).
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("artifact: %d trailing byte(s) after payload", len(r.data)-r.off)
	}
	return nil
}

// Uvarint reads an unsigned varint. Writer emits only minimal varints,
// so a multi-byte varint whose last byte is zero (0xAE 0x00 for 46) is
// malformed: accepting it would let two payloads decode to one value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || n > 1 && r.data[r.off+n-1] == 0 {
		r.fail("artifact: malformed uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// Int reads a signed integer. Values outside the int range fail.
func (r *Reader) Int() int {
	x := r.Int64()
	if int64(int(x)) != x {
		r.fail("artifact: integer %d overflows int", x)
		return 0
	}
	return int(x)
}

// Int64 reads a signed 64-bit integer. Like Uvarint it rejects a
// varint padded with a zero last byte.
func (r *Reader) Int64() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.data[r.off:])
	if n <= 0 || n > 1 && r.data[r.off+n-1] == 0 {
		r.fail("artifact: malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	switch v := r.Uvarint(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("artifact: boolean out of range: %d", v)
		return false
	}
}

// String reads a length-prefixed string. The length is validated
// against the remaining bytes before any allocation, so a corrupt
// length cannot trigger a huge allocation.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("artifact: string length %d exceeds %d remaining bytes", n, len(r.data)-r.off)
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Ints reads a length-prefixed slice of signed integers.
func (r *Reader) Ints() []int {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Int()
		if r.err != nil {
			return nil
		}
	}
	return xs
}

// Len reads a length prefix and validates it against the remaining
// input (every encoded element costs at least one byte), so corrupt
// counts cannot drive huge allocations in decoders.
func (r *Reader) Len() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)-r.off) || n > math.MaxInt32 {
		r.fail("artifact: element count %d exceeds %d remaining bytes", n, len(r.data)-r.off)
		return 0
	}
	return int(n)
}
