// Wire conformance for the gossip-era message kinds: the gossip
// substrate's pull/delta/rumor carriers, the directory's anti-entropy
// digest and delta, and the failure detector's indirect-probe and
// verdict-rumor kinds. The generic all-kinds round trip in
// wire_fuzz_test.go already covers them once; this file adds the
// adversarial angles — randomized values via testing/quick, truncation
// walks over every prefix of a valid frame, and a fuzz target aimed at
// the body decoders directly.
package repro

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

// gossipKinds are the message kinds the gossip substrate and its two
// consumers introduced.
var gossipKinds = []string{
	"gsp.pull", "gsp.delta", "gsp.rumor",
	"dir.digest", "dir.delta",
	"fail.iprobe", "fail.iprobe-rep", "fail.rumor",
}

// quickRand seeds the randomized-value generator; fixed so failures
// reproduce.
var quickRand = rand.New(rand.NewSource(99))

// quickValue fills one message of the kind with randomized field values
// via testing/quick's generator.
func quickValue(t testing.TB, kind string) wire.Msg {
	t.Helper()
	m := newPopulated(t, kind, false)
	v, ok := quick.Value(reflect.TypeOf(m).Elem(), quickRand)
	if !ok {
		t.Fatalf("%s: quick.Value failed", kind)
	}
	reflect.ValueOf(m).Elem().Set(v)
	return m
}

// TestGossipKindsQuickRoundTrip drives each gossip-era kind through
// encode → decode with randomized values: the decode must reproduce the
// encoded message exactly, whatever the field contents.
func TestGossipKindsQuickRoundTrip(t *testing.T) {
	for _, kind := range gossipKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			prop := func() bool {
				m := quickValue(t, kind)
				bin, err := m.AppendBinary(nil)
				if err != nil {
					t.Fatalf("%s: encode: %v", kind, err)
				}
				back := newPopulated(t, kind, false)
				if err := back.UnmarshalBinary(bin); err != nil {
					t.Fatalf("%s: decode of own encoding: %v\nvalue: %#v", kind, err, m)
				}
				if !equalCanonical(m, back) {
					t.Fatalf("%s: round trip changed the message:\n in  %#v\n out %#v", kind, m, back)
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGossipKindsTruncationWalk encodes a populated frame of each kind
// and feeds the decoder every strict prefix: none may panic, and any
// prefix that happens to decode must re-encode to a decodable frame
// (no mangled half-reads escaping as valid messages).
func TestGossipKindsTruncationWalk(t *testing.T) {
	for _, kind := range gossipKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			m := newPopulated(t, kind, false)
			populateValue(reflect.ValueOf(m).Elem(), 5)
			bin, err := m.AppendBinary(nil)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			for cut := 0; cut < len(bin); cut++ {
				back := newPopulated(t, kind, false)
				if err := back.UnmarshalBinary(bin[:cut]); err != nil {
					continue
				}
				re, err := back.AppendBinary(nil)
				if err != nil {
					t.Fatalf("cut %d: decoded message does not re-encode: %v", cut, err)
				}
				again := newPopulated(t, kind, false)
				if err := again.UnmarshalBinary(re); err != nil {
					t.Fatalf("cut %d: re-encoded message does not decode: %v", cut, err)
				}
			}
		})
	}
}

// TestGossipNestedBodyRoundTrip exercises the nesting the substrate
// actually performs: a consumer body (directory digest) encoded via
// EncodeBody, carried opaque, and decoded back via DecodeBody.
func TestGossipNestedBodyRoundTrip(t *testing.T) {
	prop := func() bool {
		inner := quickValue(t, "dir.digest")
		enc, err := wire.EncodeBody(inner)
		if err != nil {
			t.Fatalf("EncodeBody: %v", err)
		}
		id := enc.ID()
		body := append([]byte(nil), enc.Bytes()...)
		enc.Release()
		back, err := wire.DecodeBody(id, body)
		if err != nil {
			t.Fatalf("DecodeBody: %v\nvalue: %#v", err, inner)
		}
		if !equalCanonical(inner, back) {
			t.Fatalf("nested round trip changed the digest:\n in  %#v\n out %#v", inner, back)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzGossipRoundTrip aims arbitrary bytes at each gossip-era kind's
// binary decoder: malformed input must only error, and anything that
// decodes must round-trip to a fixed point.
func FuzzGossipRoundTrip(f *testing.F) {
	for _, kind := range gossipKinds {
		m := newPopulated(f, kind, false)
		if bin, err := m.AppendBinary(nil); err == nil {
			f.Add(bin)
		}
		populateValue(reflect.ValueOf(m).Elem(), 3)
		if bin, err := m.AppendBinary(nil); err == nil {
			f.Add(bin)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range gossipKinds {
			m := newPopulated(t, kind, false)
			if err := m.UnmarshalBinary(data); err != nil {
				continue
			}
			bin, err := m.AppendBinary(nil)
			if err != nil {
				t.Fatalf("%s: decoded message does not re-encode: %v", kind, err)
			}
			back := newPopulated(t, kind, false)
			if err := back.UnmarshalBinary(bin); err != nil {
				t.Fatalf("%s: re-encoded message does not decode: %v", kind, err)
			}
			if !equalCanonical(m, back) {
				t.Fatalf("%s: round trip is not a fixed point:\n was %#v\n now %#v", kind, m, back)
			}
		}
	})
}

// equalCanonical compares two messages modulo nil-vs-empty slices and
// maps, which the codec legitimately canonicalizes (a zero count decodes
// as nil).
func equalCanonical(a, b wire.Msg) bool {
	return reflect.DeepEqual(canonMsg(a), canonMsg(b))
}

// canonMsg deep-copies a message with every empty slice and map
// normalized to nil.
func canonMsg(m wire.Msg) any {
	v := reflect.ValueOf(m).Elem()
	out := reflect.New(v.Type()).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, o := v.Field(i), out.Field(i)
		if !o.CanSet() {
			continue
		}
		switch f.Kind() {
		case reflect.Slice:
			if f.Len() == 0 {
				continue // stays nil
			}
		case reflect.Map:
			if f.Len() == 0 {
				continue
			}
		}
		o.Set(f)
	}
	return out.Interface()
}
