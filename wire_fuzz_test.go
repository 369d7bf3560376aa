// Round-trip conformance for the wire codec over every registered message
// kind. This file lives in the root package because the test binary links
// every message-bearing package (bench_test.go imports the experiment
// registry, which reaches them all), so the process-wide kind registry
// here is the full one a real deployment has.
package repro

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// kindsEnvelope builds a representative envelope around a body. Its
// dapplet addresses are set so the round trip checks they are not sent.
func kindsEnvelope(body wire.Msg) *wire.Envelope {
	return &wire.Envelope{
		To:          wire.InboxRef{Dapplet: netsim.Addr{Host: "caltech", Port: 4021}, Inbox: "students"},
		FromDapplet: netsim.Addr{Host: "anu.au", Port: 999},
		FromOutbox:  "out",
		Session:     "s-42",
		Lamport:     123456789,
		Body:        body,
	}
}

// populateValue fills v with deterministic non-zero data (seeded by n) so
// round-trip tests exercise every field of every message type: a codec
// that silently drops a field cannot pass against a populated value.
func populateValue(v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n)*7 - 3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n)*7 + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		populateValue(s.Index(0), n)
		populateValue(s.Index(1), n+1)
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k := reflect.New(v.Type().Key()).Elem()
		populateValue(k, n)
		e := reflect.New(v.Type().Elem()).Elem()
		populateValue(e, n+1)
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		populateValue(p.Elem(), n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				populateValue(f, n+i)
			}
		}
	}
}

// messageKinds returns every registered kind that is a message, which is
// every kind but wire's reserved id-0 entry.
func messageKinds(t testing.TB) []string {
	t.Helper()
	var kinds []string
	for _, kind := range wire.Kinds() {
		v, err := wire.NewOf(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.(wire.Msg); ok {
			kinds = append(kinds, kind)
		} else if kind != "wire.reserved" {
			t.Fatalf("%s: registered without a codec", kind)
		}
	}
	return kinds
}

// newPopulated returns a fresh message of the kind, zero or with every
// field filled.
func newPopulated(t testing.TB, kind string, populated bool) wire.Msg {
	t.Helper()
	v, err := wire.NewOf(kind)
	if err != nil {
		t.Fatal(err)
	}
	m := v.(wire.Msg)
	if populated {
		populateValue(reflect.ValueOf(m).Elem(), 3)
	}
	return m
}

// TestEnvelopeRoundTripAllKinds asserts, for every registered kind, that
// encode → decode is strict identity on everything the frame carries —
// for both the zero value and a fully populated value of each kind — and
// that the two dapplet addresses, which the frame does not carry, decode
// as zero.
func TestEnvelopeRoundTripAllKinds(t *testing.T) {
	kinds := messageKinds(t)
	if len(kinds) < 20 {
		t.Fatalf("only %d kinds registered; message packages not linked?", len(kinds))
	}
	for _, kind := range kinds {
		for _, populated := range []bool{false, true} {
			roundTripKind(t, kind, kindsEnvelope(newPopulated(t, kind, populated)))
		}
	}
}

func roundTripKind(t *testing.T, kind string, env *wire.Envelope) {
	t.Helper()
	data, err := wire.MarshalEnvelope(env)
	if err != nil {
		t.Fatalf("%s: marshal: %v", kind, err)
	}
	got, err := wire.UnmarshalEnvelope(data)
	if err != nil {
		t.Fatalf("%s: unmarshal: %v", kind, err)
	}
	want := *env
	want.To.Dapplet, want.FromDapplet = netsim.Addr{}, netsim.Addr{}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("%s: round trip not identity:\n got %#v\nwant %#v", kind, got, &want)
	}
}

// TestKindsTruncationWalk feeds every strict prefix of a populated
// message's encoding to its decoder, for every registered kind: each must
// return an error — never a value, never a panic.
func TestKindsTruncationWalk(t *testing.T) {
	for _, kind := range messageKinds(t) {
		enc, err := newPopulated(t, kind, true).AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if err := newPopulated(t, kind, false).UnmarshalBinary(enc[:cut]); err == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded without error", kind, cut, len(enc))
			}
		}
	}
}

// TestMarshalRoundTripsByKindName asserts the durable form — kind name,
// then body — reconstructs every registered kind without consulting the
// per-build dense ids.
func TestMarshalRoundTripsByKindName(t *testing.T) {
	for _, kind := range messageKinds(t) {
		m := newPopulated(t, kind, true)
		data, err := wire.Marshal(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", kind, err)
		}
		if !bytes.Contains(data, []byte(kind)) {
			t.Fatalf("%s: durable form does not name its kind: %q", kind, data)
		}
		got, err := wire.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", kind, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: round trip not identity:\n got %#v\nwant %#v", kind, got, m)
		}
	}
}

// FuzzEnvelopeRoundTrip feeds arbitrary bytes to the envelope decoder and
// asserts that anything that decodes re-encodes to a frame that decodes to
// the same envelope. Every input also goes through one decoder shared by
// all inputs, which must agree with the stateless one whatever header
// strings it kept from earlier inputs. The seeds are a zero and a
// populated frame of every registered kind.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	var shared wire.EnvelopeDecoder
	for _, kind := range messageKinds(f) {
		for _, populated := range []bool{false, true} {
			data, err := wire.MarshalEnvelope(kindsEnvelope(newPopulated(f, kind, populated)))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := wire.UnmarshalEnvelope(data)
		viaShared, sharedErr := shared.UnmarshalEnvelope(data)
		if (err == nil) != (sharedErr == nil) || !reflect.DeepEqual(env, viaShared) {
			t.Fatalf("shared decoder disagrees with the stateless one:\n shared    %#v (%v)\n stateless %#v (%v)", viaShared, sharedErr, env, err)
		}
		if err != nil {
			return // malformed input must only error, never panic
		}
		again, err := wire.MarshalEnvelope(env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v (%#v)", err, env)
		}
		back, err := wire.UnmarshalEnvelope(again)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if !reflect.DeepEqual(env, back) {
			t.Fatalf("round trip is not a fixed point:\n was %#v\n now %#v", env, back)
		}
	})
}
