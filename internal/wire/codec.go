package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file is the low-level codec every message is built from:
// length-prefixed (varint-framed) primitives written append-style into
// caller-owned buffers, and a forgiving-but-bounded Reader for the decode
// side. Message types implement Msg's AppendBinary/UnmarshalBinary with
// these helpers; the envelope framing in envelope.go uses them for the
// header words.

// ErrTruncated reports that a binary frame ended before a field did.
var ErrTruncated = errors.New("wire: truncated binary frame")

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v in zig-zag varint form (for possibly-negative
// integers).
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendBool appends a single 0/1 byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a varint length prefix followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a varint length prefix followed by the slice bytes.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendStringSlice appends a varint count followed by each string.
func AppendStringSlice(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// AppendInboxRef appends a global inbox address.
func AppendInboxRef(dst []byte, r InboxRef) []byte {
	dst = AppendString(dst, r.Dapplet.Host)
	dst = binary.AppendUvarint(dst, uint64(r.Dapplet.Port))
	return AppendString(dst, r.Inbox)
}

// AppendBody appends a nested encoded message — its dense kind id, then
// its length-prefixed EncodeBody bytes. Every frame that carries another
// message opaquely (svc.req/rep, relay.fwd) ends with this pair, payload
// last.
func AppendBody(dst []byte, id uint16, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(id))
	return AppendBytes(dst, body)
}

// Reader decodes the primitives written by the Append helpers. It is
// sticky-error: after the first malformed or truncated field every getter
// returns a zero value, and Err/Done report the failure, so message
// decoders can read all fields unconditionally and check once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader positioned at the start of data. The Reader
// aliases data; byte-slice results alias it too.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Done returns the first decode error, or an error if unread bytes remain;
// message decoders return it so trailing garbage is rejected.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes after binary frame", len(r.data)-r.off)
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	if r.err != nil || r.off >= len(r.data) {
		r.fail()
		return false
	}
	b := r.data[r.off]
	r.off++
	return b != 0
}

// Count reads a varint element count and verifies the remaining bytes
// could plausibly hold that many elements (each element costs at least one
// byte), bounding allocations on malformed input.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()) {
		r.fail()
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string. The result never aliases the
// Reader's input, but it may be shared: a string of up to 64 bytes
// decoded recently anywhere in the process comes back as the same copy,
// so decoding a name that recurs allocates nothing. A string not in the
// table costs one copy, which the table then keeps.
func (r *Reader) String() string {
	b := r.Bytes()
	if len(b) == 0 {
		return ""
	}
	return intern(b)
}

// ReuseString is String for a field decoded over its previous value:
// when the bytes equal prev it returns prev itself, so a message decoded
// again and again into one value (EnvelopeDecoder.Lend) keeps its
// strings without allocating while they repeat. Other bytes go through
// String's table.
func (r *Reader) ReuseString(prev string) string {
	b := r.Bytes()
	switch {
	case len(b) == 0:
		return ""
	case string(b) == prev:
		return prev
	}
	return intern(b)
}

// Bytes reads a length-prefixed byte slice. The result aliases the
// Reader's input (nil when the length is zero).
func (r *Reader) Bytes() []byte {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Rest returns all unread bytes, consuming them. The result aliases the
// Reader's input.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.data[r.off:]
	r.off = len(r.data)
	return b
}

// StringSlice reads a counted string slice (nil when the count is zero).
func (r *Reader) StringSlice() []string {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// uint16 reads a uvarint and range-checks it.
func (r *Reader) uint16(what string) uint16 {
	v := r.Uvarint()
	if v > 0xFFFF {
		if r.err == nil {
			r.err = fmt.Errorf("wire: %s %d out of range", what, v)
		}
		return 0
	}
	return uint16(v)
}

// Port reads a uvarint and range-checks it as a port number.
func (r *Reader) Port() uint16 { return r.uint16("port") }

// Body reads the pair written by AppendBody, ready for DecodeBody. The
// bytes alias the Reader's input.
func (r *Reader) Body() (id uint16, body []byte) {
	return r.uint16("kind id"), r.Bytes()
}

// InboxRef reads a global inbox address.
func (r *Reader) InboxRef() InboxRef {
	var ref InboxRef
	ref.Dapplet.Host = r.String()
	ref.Dapplet.Port = r.Port()
	ref.Inbox = r.String()
	return ref
}
