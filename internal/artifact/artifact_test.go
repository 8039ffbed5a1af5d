package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

func TestWireRoundTrip(t *testing.T) {
	var w Writer
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Int(-17)
	w.Int64(1 << 50)
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("héllo\x00world")
	w.Ints([]int{3, -1, 0, 1 << 30})
	w.Ints(nil)

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d, want %d", got, uint64(1)<<40)
	}
	if got := r.Int(); got != -17 {
		t.Errorf("Int = %d, want -17", got)
	}
	if got := r.Int64(); got != 1<<50 {
		t.Errorf("Int64 = %d, want %d", got, int64(1)<<50)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := r.String(); got != "héllo\x00world" {
		t.Errorf("String = %q", got)
	}
	if got := r.Ints(); len(got) != 4 || got[0] != 3 || got[1] != -1 || got[3] != 1<<30 {
		t.Errorf("Ints = %v", got)
	}
	if got := r.Ints(); got != nil {
		t.Errorf("empty Ints = %v, want nil", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestReaderRejectsMalformedInput(t *testing.T) {
	cases := map[string]func(r *Reader){
		"truncated uvarint": func(r *Reader) { r.Uvarint() },
		"oversized string":  func(r *Reader) { _ = r.String() },
		"oversized count":   func(r *Reader) { r.Ints() },
		"padded uvarint":    func(r *Reader) { r.Uvarint() },
		"padded varint":     func(r *Reader) { r.Int64() },
	}
	inputs := map[string][]byte{
		"truncated uvarint": {0x80},             // continuation bit, no next byte
		"oversized string":  {0xFF, 0xFF, 0x03}, // length way past the end
		"oversized count":   {0xFF, 0xFF, 0x03},
		"padded uvarint":    {0xAE, 0x00}, // 46 with a redundant zero byte
		"padded varint":     {0x80, 0x00}, // 0 with a redundant zero byte
	}
	for name, read := range cases {
		r := NewReader(inputs[name])
		read(r)
		if r.Err() == nil {
			t.Errorf("%s: no error", name)
		}
		// Sticky: further reads stay failed and return zero values.
		if got := r.Uvarint(); got != 0 {
			t.Errorf("%s: read after error = %d, want 0", name, got)
		}
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	var w Writer
	w.Uvarint(7)
	data := append(w.Bytes(), 0x01)
	r := NewReader(data)
	if got := r.Uvarint(); got != 7 {
		t.Fatalf("Uvarint = %d", got)
	}
	if err := r.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("the artifact payload \x00\x01\x02")
	rec := Encode("ir", "abc123", payload)
	got, err := Decode(rec, "ir", "abc123")
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	kind, key, err := Inspect(rec)
	if err != nil || kind != "ir" || key != "abc123" {
		t.Fatalf("Inspect = %q, %q, %v", kind, key, err)
	}
}

func TestDecodeEmptyPayload(t *testing.T) {
	rec := Encode("sdg", "k", nil)
	got, err := Decode(rec, "sdg", "k")
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("payload = %v, want empty", got)
	}
}

// reencode rebuilds a record from mutated body bytes with a fresh,
// valid checksum — for tests that must get past the CRC to reach the
// header checks (version skew, kind/key mismatch).
func reencode(rec []byte, mutate func(body []byte) []byte) []byte {
	body := mutate(append([]byte(nil), rec[:len(rec)-4]...))
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(body, sum)
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	rec := Encode("pts", "key1", []byte("payload"))
	// The format and codec version bytes immediately follow the magic
	// (both are < 128, so single-byte varints).
	fmtOff := len(magic)
	codecOff := fmtOff + 1

	for name, off := range map[string]int{"format": fmtOff, "codec": codecOff} {
		skewed := reencode(rec, func(body []byte) []byte {
			body[off] = body[off] + 1
			return body
		})
		_, err := Decode(skewed, "pts", "key1")
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s skew: err = %v, want *CorruptError", name, err)
		}
		if !ce.IsVersionSkew() {
			t.Errorf("%s skew: reason = %q, want version skew", name, ce.Reason)
		}
	}
}

func TestDecodeRejectsKindAndKeyMismatch(t *testing.T) {
	rec := Encode("cha", "deadbeef", []byte("x"))
	if _, err := Decode(rec, "modref", "deadbeef"); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("kind mismatch: %v", err)
	}
	if _, err := Decode(rec, "cha", "feedface"); err == nil || !strings.Contains(err.Error(), "key") {
		t.Errorf("key mismatch: %v", err)
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	rec := Encode("ir", "k", bytes.Repeat([]byte("abcdefgh"), 16))
	// Flip one bit at every position; every mutation must be detected.
	for i := range rec {
		mutated := append([]byte(nil), rec...)
		mutated[i] ^= 0x10
		if _, err := Decode(mutated, "ir", "k"); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
		var ce *CorruptError
		if _, err := Decode(mutated, "ir", "k"); !errors.As(err, &ce) {
			t.Fatalf("bit flip at byte %d: err not *CorruptError: %v", i, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	rec := Encode("sdg", "k", []byte("some payload bytes"))
	for n := 0; n < len(rec); n++ {
		if _, err := Decode(rec[:n], "sdg", "k"); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{0xFF}, 64), []byte("TSART\x00 but not really a record")} {
		if _, err := Decode(data, "ir", "k"); err == nil {
			t.Errorf("garbage %q accepted", data)
		}
	}
}
