// Round-trip conformance for the wire codec over every registered message
// kind. This file lives in the root package because the test binary links
// every message-bearing package (bench_test.go imports the experiment
// registry, which reaches them all), so the process-wide kind registry
// here is the full one a real deployment has.
package repro

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
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

// splitFrame encodes env as a sender frames it: the header half and the
// payload half.
func splitFrame(t *testing.T, env *wire.Envelope) (hdr, payload []byte) {
	t.Helper()
	body, err := wire.EncodeBody(env.Body)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Release()
	return wire.AppendEnvelopeHeader(nil, env, body), wire.AppendEnvelopePayload(nil, env, body)
}

// TestLentDecodeAllKinds: a lent decode (EnvelopeDecoder.Lend) decodes
// each body over the previous value of its kind, so every kind's decoder
// must set every field. For every registered kind, a populated value and
// then a zero one, lent by one decoder, each equal a fresh decode. Then
// a repeated relay frame, the one kind lent on every tree hop, is lent
// into the same Envelope twice and allocates nothing.
func TestLentDecodeAllKinds(t *testing.T) {
	var dec wire.EnvelopeDecoder
	for _, kind := range messageKinds(t) {
		for _, populated := range []bool{true, false} {
			hdr, payload := splitFrame(t, kindsEnvelope(newPopulated(t, kind, populated)))
			want, err := wire.UnmarshalEnvelope(append(slices.Clip(hdr), payload...))
			if err != nil {
				t.Fatalf("%s: fresh decode: %v", kind, err)
			}
			if _, err := dec.Header(hdr); err != nil {
				t.Fatalf("%s: header: %v", kind, err)
			}
			got, err := dec.Lend(payload)
			if err != nil {
				t.Fatalf("%s: lent decode: %v", kind, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (populated %v): lent decode over a reused body differs from a fresh one:\n got %#v\nwant %#v", kind, populated, got.Body, want.Body)
			}
		}
	}

	body, err := wire.EncodeBody(&wire.Bytes{B: make([]byte, 256)})
	if err != nil {
		t.Fatal(err)
	}
	frame := &wire.RelayFrame{Origin: "m00", OriginAddr: netsim.Addr{Host: "site0", Port: 7}, OriginOutbox: "out",
		Lamport: 9, Seq: 3, Epoch: 1, TTL: 6, BodyID: body.ID(), Body: slices.Clone(body.Bytes())}
	body.Release()
	hdr, payload := splitFrame(t, kindsEnvelope(frame))
	lend := func() *wire.Envelope {
		if _, err := dec.Header(hdr); err != nil {
			t.Fatal(err)
		}
		env, err := dec.Lend(payload)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	if first, second := lend(), lend(); first != second || first.Body != second.Body {
		t.Fatal("two lent decodes of one kind returned different values")
	}
	if got := lend().Body.(*wire.RelayFrame); !reflect.DeepEqual(got, frame) {
		t.Fatalf("lent relay frame %+v, want %+v", got, frame)
	}
	if allocs := testing.AllocsPerRun(100, func() { lend() }); allocs != 0 {
		t.Fatalf("a lent decode of a repeated relay frame allocates %.1f times, want 0", allocs)
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
// the same envelope. Every input also goes, cut in two at every offset,
// through one split-frame decoder shared by all inputs: exactly one cut —
// the one at Lamport — may decode, and only when the whole frame does, to
// the same envelope whatever header strings the decoder kept from earlier
// inputs. The seeds are a zero and a populated frame of every registered
// kind, then edgeSeeds.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	var shared wire.EnvelopeDecoder
	kinds := messageKinds(f)
	for _, kind := range kinds {
		for _, populated := range []bool{false, true} {
			data, err := wire.MarshalEnvelope(kindsEnvelope(newPopulated(f, kind, populated)))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, data := range edgeSeeds(f, newPopulated(f, kinds[0], true)) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := wire.UnmarshalEnvelope(data)
		cuts := 0
		for cut := range len(data) + 1 {
			viaShared, sharedErr := shared.Decode(data[:cut], data[cut:])
			if sharedErr != nil {
				continue
			}
			if cuts++; err != nil || !reflect.DeepEqual(env, viaShared) {
				t.Fatalf("split decoder at %d disagrees with the whole-frame one:\n split %#v\n whole %#v (%v)", cut, viaShared, env, err)
			}
		}
		if err == nil && cuts != 1 {
			t.Fatalf("%d cuts decode, want exactly 1", cuts)
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

// edgeSeeds returns frames around one populated body that the per-kind
// seeds do not reach: headers the shared split decoder has not kept (empty,
// changed twice, a session, an inbox and an outbox long enough for a
// two-byte length, the largest Lamport), and malformed frames (empty, the
// magic byte alone, cut in half, cut short by one byte, one byte too long,
// two frames back to back, a wrong magic byte) that must only error.
func edgeSeeds(t testing.TB, body wire.Msg) [][]byte {
	t.Helper()
	marshal := func(e *wire.Envelope) []byte {
		data, err := wire.MarshalEnvelope(e)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	whole := marshal(kindsEnvelope(body))
	changed := kindsEnvelope(body)
	changed.To.Inbox, changed.FromOutbox, changed.Session = "staff", "out2", "s-43"
	bare := kindsEnvelope(body)
	bare.To.Inbox, bare.FromOutbox, bare.Session = "a", "", ""
	long := kindsEnvelope(body)
	long.Session = strings.Repeat("s", 200)
	longInbox := kindsEnvelope(body)
	longInbox.To.Inbox = strings.Repeat("i", 200)
	longOutbox := kindsEnvelope(body)
	longOutbox.FromOutbox = strings.Repeat("o", 200)
	last := kindsEnvelope(body)
	last.Lamport = math.MaxUint64
	wrongMagic := bytes.Clone(whole)
	wrongMagic[0] ^= 0xff
	return [][]byte{
		marshal(&wire.Envelope{Body: body}),
		marshal(changed),
		marshal(bare),
		marshal(long),
		marshal(longInbox),
		marshal(longOutbox),
		marshal(last),
		{},
		whole[:1],
		whole[:len(whole)/2],
		whole[:len(whole)-1],
		append(bytes.Clone(whole), 0),
		append(bytes.Clone(whole), whole...),
		wrongMagic,
	}
}
