package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Format versions. FormatVersion covers the container layout below;
// CodecVersion covers the per-artifact payload encodings (the ir /
// pointsto / sdg / cha / modref codecs). Bump CodecVersion on any
// payload schema change; bump FormatVersion only if the container
// itself changes. A reader never interprets a record written under a
// different version — it reports version skew and the caller rebuilds.
const (
	FormatVersion = 1
	// CodecVersion 2: points-to results canonicalize object/context IDs,
	// which reorders the pointsto and sdg payload bytes; records written
	// under version 1 would relink but carry the old ordering, so they
	// must miss.
	//
	// CodecVersion 3: the sdg payload declares its edge count and stores
	// each dependence as a source delta plus one kind varint with a
	// has-via bit (see package sdg's codec). Under version 2 its
	// absolute three-field rows took 4.3 bytes per edge on javac@5 and
	// decoded slower than the graph builds; they now take 2.0 and decode
	// in about half the build time. A version 2 sdg record would misparse
	// as version 3, so every version 2 record must miss.
	CodecVersion = 3
)

// magic identifies a thinslice artifact file. The trailing byte pins
// byte order and leaves no prefix ambiguity with text formats.
const magic = "TSART\x00"

// crcTable is the Castagnoli polynomial, the common choice for storage
// checksums (hardware-accelerated by the stdlib where available).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError describes why a record was rejected. Every rejection
// reason — bad magic, version skew, kind/key mismatch, truncation,
// checksum mismatch, or a payload that fails structural decoding — is
// corruption from the cache's point of view: the file is quarantined
// and the artifact rebuilt.
type CorruptError struct {
	// Reason is a stable, single-word class: "magic", "format-version",
	// "codec-version", "kind", "key", "truncated", "checksum",
	// "payload".
	Reason string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("artifact: corrupt record (%s): %s", e.Reason, e.Detail)
}

// IsVersionSkew reports whether the record was written under a
// different (past or future) format or codec version — well-formed,
// just not ours.
func (e *CorruptError) IsVersionSkew() bool {
	return e.Reason == "format-version" || e.Reason == "codec-version"
}

func corrupt(reason, format string, args ...any) error {
	return &CorruptError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// Encode frames payload as a self-describing record:
//
//	magic | format | codec | kind | key | len(payload) | payload | crc32c
//
// kind names the artifact type ("ir", "pts", ...) and key echoes the
// content-hash store key, so a record read back under the wrong name —
// a renamed file, a hash collision in the path layer, a bug — is
// detected before its payload is ever interpreted.
func Encode(kind, key string, payload []byte) []byte {
	var w Writer
	w.buf = append(w.buf, magic...)
	w.Uvarint(FormatVersion)
	w.Uvarint(CodecVersion)
	w.String(kind)
	w.String(key)
	w.Uvarint(uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	sum := crc32.Checksum(w.buf, crcTable)
	return binary.LittleEndian.AppendUint32(w.buf, sum)
}

// Decode verifies data against wantKind/wantKey and returns the
// payload. Any failure is a *CorruptError; the payload is returned
// only after the whole-record checksum has been verified, so a
// returned payload is exactly what Encode wrote.
func Decode(data []byte, wantKind, wantKey string) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, corrupt("truncated", "record is %d bytes", len(data))
	}
	// Checksum first: everything else in the header is only trustworthy
	// once the record as a whole is known intact.
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, corrupt("checksum", "crc32c %08x, record says %08x", got, want)
	}
	if string(body[:len(magic)]) != magic {
		return nil, corrupt("magic", "bad magic %q", body[:len(magic)])
	}
	r := NewReader(body[len(magic):])
	if v := r.Uvarint(); r.Err() == nil && v != FormatVersion {
		return nil, corrupt("format-version", "record format v%d, this build reads v%d", v, FormatVersion)
	}
	if v := r.Uvarint(); r.Err() == nil && v != CodecVersion {
		return nil, corrupt("codec-version", "record codec v%d, this build reads v%d", v, CodecVersion)
	}
	kind := r.String()
	key := r.String()
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, corrupt("truncated", "header: %v", err)
	}
	if kind != wantKind {
		return nil, corrupt("kind", "record holds %q, expected %q", kind, wantKind)
	}
	if key != wantKey {
		return nil, corrupt("key", "record keyed %q, expected %q", key, wantKey)
	}
	rest := body[len(magic)+r.off:]
	if uint64(len(rest)) != n {
		return nil, corrupt("truncated", "payload is %d bytes, header says %d", len(rest), n)
	}
	return rest, nil
}

// Inspect reads only the self-describing header of a record, verifying
// the checksum: it returns the kind and key the record claims to hold.
// fsck uses it to describe entries without knowing their expected key.
func Inspect(data []byte) (kind, key string, err error) {
	if len(data) < len(magic)+4 {
		return "", "", corrupt("truncated", "record is %d bytes", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return "", "", corrupt("checksum", "crc32c %08x, record says %08x", got, want)
	}
	if string(body[:len(magic)]) != magic {
		return "", "", corrupt("magic", "bad magic %q", body[:len(magic)])
	}
	r := NewReader(body[len(magic):])
	if v := r.Uvarint(); r.Err() == nil && v != FormatVersion {
		return "", "", corrupt("format-version", "record format v%d, this build reads v%d", v, FormatVersion)
	}
	if v := r.Uvarint(); r.Err() == nil && v != CodecVersion {
		return "", "", corrupt("codec-version", "record codec v%d, this build reads v%d", v, CodecVersion)
	}
	kind = r.String()
	key = r.String()
	if err := r.Err(); err != nil {
		return "", "", corrupt("truncated", "header: %v", err)
	}
	return kind, key, nil
}
