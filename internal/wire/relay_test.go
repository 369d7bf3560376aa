package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

// relayFrameEqual compares frames treating nil and empty bodies as equal
// (the codec canonicalizes empty to nil).
func relayFrameEqual(a, b *RelayFrame) bool {
	ac, bc := *a, *b
	ac.Body, bc.Body = nil, nil
	return reflect.DeepEqual(ac, bc) && bytes.Equal(a.Body, b.Body)
}

// TestRelayFrameRoundTrip drives the binary codec with generated frames:
// encode → decode must be identity for every field.
func TestRelayFrameRoundTrip(t *testing.T) {
	f := func(origin, host string, port uint16, outbox string,
		lamport, seq, epoch uint64, ttl uint32, bodyID uint16, body []byte) bool {
		in := &RelayFrame{
			Origin:       origin,
			OriginAddr:   netsim.Addr{Host: host, Port: port},
			OriginOutbox: outbox,
			Lamport:      lamport,
			Seq:          seq,
			Epoch:        epoch,
			TTL:          ttl,
			BodyID:       bodyID,
			Body:         body,
		}
		enc, err := in.AppendBinary(nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var out RelayFrame
		if err := out.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return relayFrameEqual(in, &out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRelayFrameTruncation walks every prefix of an encoded frame: each
// must fail cleanly, never panic, never succeed.
func TestRelayFrameTruncation(t *testing.T) {
	in := &RelayFrame{
		Origin:       "broadcaster",
		OriginAddr:   netsim.Addr{Host: "site0", Port: 4021},
		OriginOutbox: "bcast",
		Lamport:      991,
		Seq:          7,
		Epoch:        2,
		TTL:          12,
		BodyID:       3,
		Body:         []byte("payload-bytes"),
	}
	enc, err := in.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(enc); n++ {
		var out RelayFrame
		if err := out.UnmarshalBinary(enc[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(enc))
		}
	}
	var out RelayFrame
	if err := out.UnmarshalBinary(enc); err != nil {
		t.Fatalf("full frame failed to decode: %v", err)
	}
}

// TestRelayFrameCopyBody asserts CopyBody detaches the body from the
// decode buffer.
func TestRelayFrameCopyBody(t *testing.T) {
	in := &RelayFrame{Origin: "o", Body: []byte("abc")}
	enc, err := in.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out RelayFrame
	if err := out.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	out.CopyBody()
	for i := range enc {
		enc[i] = 0xAA
	}
	if string(out.Body) != "abc" {
		t.Fatalf("body corrupted by buffer reuse: %q", out.Body)
	}
}

// FuzzRelayFrame feeds arbitrary bytes to the relay frame decoder and
// asserts anything that decodes re-encodes to a byte-identical frame.
func FuzzRelayFrame(f *testing.F) {
	seed := &RelayFrame{
		Origin:       "o",
		OriginAddr:   netsim.Addr{Host: "h", Port: 1},
		OriginOutbox: "out",
		Lamport:      5,
		Seq:          1,
		Epoch:        1,
		TTL:          8,
		BodyID:       2,
		Body:         []byte{1, 2, 3},
	}
	enc, err := seed.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m RelayFrame
		if err := m.UnmarshalBinary(data); err != nil {
			return // malformed input must only error, never panic
		}
		re, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		var again RelayFrame
		if err := again.UnmarshalBinary(re); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !relayFrameEqual(&m, &again) {
			t.Fatalf("round trip changed the frame:\n was %#v\n now %#v", m, again)
		}
		if !reflect.DeepEqual(m.Body == nil, again.Body == nil) && len(m.Body) > 0 {
			t.Fatalf("body nil-ness changed")
		}
	})
}
