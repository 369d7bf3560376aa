package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

type testMsg struct {
	N int
	S string
	L []string
}

func (*testMsg) Kind() string { return "wire_test.msg" }

func (m *testMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = AppendVarint(dst, int64(m.N))
	dst = AppendString(dst, m.S)
	return AppendStringSlice(dst, m.L), nil
}

func (m *testMsg) UnmarshalBinary(data []byte) error {
	r := NewReader(data)
	m.N = int(r.Varint())
	m.S = r.String()
	m.L = r.StringSlice()
	return r.Done()
}

type otherMsg struct{ X int }

func (*otherMsg) Kind() string { return "wire_test.other" }

func (m *otherMsg) AppendBinary(dst []byte) ([]byte, error) {
	return AppendVarint(dst, int64(m.X)), nil
}

func (m *otherMsg) UnmarshalBinary(data []byte) error {
	r := NewReader(data)
	m.X = int(r.Varint())
	return r.Done()
}

func init() {
	Register(&testMsg{})
	Register(&otherMsg{})
}

func TestMarshalRoundTrip(t *testing.T) {
	in := &testMsg{N: 42, S: "hello", L: []string{"a", "b"}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*testMsg)
	if !ok {
		t.Fatalf("reconstructed type %T", out)
	}
	if got.N != in.N || got.S != in.S || len(got.L) != 2 {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestMarshalIsString(t *testing.T) {
	// The paper converts a message to a string that names its type; ours
	// is the kind name, length-prefixed, followed by the body — no dense
	// id, so the form survives a rebuild that renumbers kinds.
	m := &testMsg{S: "日本語 unicode", N: -1}
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := m.AppendBinary(nil)
	if want := append(AppendString(nil, m.Kind()), body...); !bytes.Equal(data, want) {
		t.Fatalf("wire form = %q, want kind name then body %q", data, want)
	}
}

func TestUnmarshalUnknownKind(t *testing.T) {
	if _, err := Unmarshal(AppendString(nil, "never.registered")); err == nil {
		t.Fatal("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "never.registered") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	valid, err := Marshal(&testMsg{S: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"", "{", "[]", `{"k":"wire.text","b":{}}`, string(valid[:len(valid)-1]), string(valid) + "x"} {
		if _, err := Unmarshal([]byte(s)); err == nil {
			t.Errorf("garbage %q accepted", s)
		}
	}
}

func TestMarshalUnregistered(t *testing.T) {
	type rogue struct{ Msg }
	if _, err := Marshal(&Text{}); err != nil {
		t.Fatalf("builtin Text should marshal: %v", err)
	}
	_ = rogue{}
	if _, err := Marshal(nil); err == nil {
		t.Fatal("nil message accepted")
	}
}

func TestDuplicateRegistrationSameTypeOK(t *testing.T) {
	Register(&testMsg{}) // same type again: no panic
}

func TestDuplicateRegistrationDifferentTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting registration did not panic")
		}
	}()
	type clash struct{ Y int }
	Register(clashMsg{})
	_ = clash{}
}

type clashMsg struct{ Y int }

func (clashMsg) Kind() string { return "wire_test.msg" } // collides with testMsg

func (clashMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

func (clashMsg) UnmarshalBinary([]byte) error { return nil }

func TestTextAndBytesBuiltins(t *testing.T) {
	d1, err := Marshal(&Text{S: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Unmarshal(d1)
	if err != nil {
		t.Fatal(err)
	}
	if m1.(*Text).S != "hi" {
		t.Fatalf("text = %+v", m1)
	}
	d2, err := Marshal(&Bytes{B: []byte{0, 1, 255}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Unmarshal(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m2.(*Bytes).B, []byte{0, 1, 255}) {
		t.Fatalf("bytes = %+v", m2)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := &Envelope{
		To:          InboxRef{Dapplet: netsim.Addr{Host: "caltech", Port: 99}, Inbox: "students"},
		FromDapplet: netsim.Addr{Host: "rice", Port: 12},
		FromOutbox:  "out",
		Session:     "calendar-1",
		Lamport:     777,
		Body:        &Text{S: "meeting?"},
	}
	data, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"caltech", "rice"} {
		if bytes.Contains(data, []byte(host)) {
			t.Fatalf("frame carries dapplet host %q: %q", host, data)
		}
	}
	got, err := UnmarshalEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, onWire(env)) {
		t.Fatalf("decoded %+v, want %+v", got, onWire(env))
	}
}

// onWire is what UnmarshalEnvelope returns for env: every field but the
// two dapplet addresses, which the frame does not carry.
func onWire(env *Envelope) *Envelope {
	w := *env
	w.To.Dapplet, w.FromDapplet = netsim.Addr{}, netsim.Addr{}
	return &w
}

// TestEnvelopeRefusesOldLayout feeds a frame in the layout that still
// carried both dapplet addresses, under its own magic byte: it must be
// refused, not misread into a header of shifted fields.
func TestEnvelopeRefusesOldLayout(t *testing.T) {
	id, _ := kindID("wire.text")
	body, err := (&Text{S: "meeting?"}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte{0xBF}
	old = AppendUvarint(old, uint64(id))
	old = AppendString(old, "caltech")
	old = AppendUvarint(old, 99)
	old = AppendString(old, "students")
	old = AppendString(old, "rice")
	old = AppendUvarint(old, 12)
	old = AppendString(old, "out")
	old = AppendString(old, "calendar-1")
	old = AppendUvarint(old, 777)
	old = append(old, body...)
	env, err := UnmarshalEnvelope(old)
	if err == nil {
		t.Fatalf("old-layout frame decoded to %+v", env)
	}
	if !strings.Contains(err.Error(), "no magic byte") {
		t.Fatalf("old-layout frame refused for %q, want the magic byte", err)
	}
}

func TestEnvelopeBodyMustBeRegistered(t *testing.T) {
	type unregistered struct{ Msg }
	env := &Envelope{Body: nil}
	if _, err := MarshalEnvelope(env); err == nil {
		t.Fatal("nil body accepted")
	}
	_ = unregistered{}
}

func TestEnvelopePropertyRoundTrip(t *testing.T) {
	f := func(host string, port uint16, inbox, outbox, session string, lt uint64, text string) bool {
		env := &Envelope{
			To:          InboxRef{Dapplet: netsim.Addr{Host: host, Port: port}, Inbox: inbox},
			FromDapplet: netsim.Addr{Host: host, Port: port + 1},
			FromOutbox:  outbox,
			Lamport:     lt,
			Session:     session,
			Body:        &Text{S: text},
		}
		data, err := MarshalEnvelope(env)
		if err != nil {
			return false
		}
		got, err := UnmarshalEnvelope(data)
		if err != nil {
			return false
		}
		return got.To == InboxRef{Inbox: inbox} && got.FromDapplet.IsZero() &&
			got.FromOutbox == outbox && got.Lamport == lt && got.Session == session &&
			got.Body.(*Text).S == text
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBinaryEnvelopeBothBodyPaths round-trips built-in and test-registered
// bodies through the one frame format. (The name dates from when the
// second group took a JSON path.)
func TestBinaryEnvelopeBothBodyPaths(t *testing.T) {
	hdr := Envelope{
		To:          InboxRef{Dapplet: netsim.Addr{Host: "caltech", Port: 99}, Inbox: "students"},
		FromDapplet: netsim.Addr{Host: "rice", Port: 12},
		FromOutbox:  "out",
		Session:     "s9",
		Lamport:     31337,
	}
	bodies := []Msg{
		&Text{S: "a string"},
		&otherMsg{X: 7},
		&Bytes{B: []byte{0, 1, 2, 255}},
		&testMsg{N: -3, S: "x", L: nil},
		&testMsg{N: 1 << 40, L: []string{"", "b"}},
	}
	for _, body := range bodies {
		env := hdr
		env.Body = body
		data, err := MarshalEnvelope(&env)
		if err != nil {
			t.Fatalf("%T: %v", body, err)
		}
		if data[0] != envMagic {
			t.Fatalf("%T: frame does not start with magic: % x", body, data[:4])
		}
		got, err := UnmarshalEnvelope(data)
		if err != nil {
			t.Fatalf("%T: %v", body, err)
		}
		if !reflect.DeepEqual(got, onWire(&env)) {
			t.Fatalf("%T: decoded %+v, want %+v", body, got, onWire(&env))
		}
	}
}

// TestEnvelopeWithoutMagicRejected asserts there is one frame format: a
// datagram that does not start with the magic byte — including what used
// to be a valid JSON envelope — is an error, not a second decode path.
func TestEnvelopeWithoutMagicRejected(t *testing.T) {
	valid, err := MarshalEnvelope(&Envelope{Body: &Text{S: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		[]byte(`{"to":{"d":{"h":"h","p":1},"i":"in"},"fd":{"h":"","p":0},"fo":"","lt":5,"b":{"k":"wire.text","b":{"s":"x"}}}`),
		[]byte("{}"),
		valid[1:],
		append([]byte{0x00}, valid[1:]...),
	}
	for _, b := range bad {
		if env, err := UnmarshalEnvelope(b); err == nil {
			t.Errorf("frame %q without magic decoded to %+v", b, env)
		}
	}
}

func TestBinaryEnvelopeRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		{envMagic},
		{envMagic, 0},
		{envMagic, 0xFF, 0xFF, 0xFF},       // unterminated varint
		{envMagic, 0xFF, 0xFF, 0x7F, 0, 0}, // kind id past uint16
		{envMagic, 1},                      // truncated header
	}
	for _, b := range bad {
		if _, err := UnmarshalEnvelope(b); err == nil {
			t.Errorf("garbage %v accepted", b)
		}
	}
	// A valid header whose kind id was never registered must fail cleanly.
	env := &Envelope{Body: &Text{S: "x"}}
	data, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	data[1] = 0 // kind id 0 is reserved invalid
	if _, err := UnmarshalEnvelope(data); err == nil {
		t.Error("reserved kind id accepted")
	}
}

// kindID is the dense id Register gave kind.
func kindID(kind string) (uint16, bool) {
	if e := lookup(kind); e != nil {
		return e.id, true
	}
	return 0, false
}

func TestKindIDsDense(t *testing.T) {
	id1, ok1 := kindID("wire.text")
	id2, ok2 := kindID("wire.bytes")
	if !ok1 || !ok2 || id1 == 0 || id2 == 0 || id1 == id2 {
		t.Fatalf("ids: text=%d(%v) bytes=%d(%v)", id1, ok1, id2, ok2)
	}
	if _, ok := kindID("never.registered"); ok {
		t.Fatal("unregistered kind has an id")
	}
	m, err := NewOf("wire.text")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*Text); !ok {
		t.Fatalf("NewOf returned %T", m)
	}
}

// TestReservedKindHasNoCodec pins what the id-0 registry entry is: listed
// and instantiable, but not a Msg, and refused by both decoders.
func TestReservedKindHasNoCodec(t *testing.T) {
	id, ok := kindID("wire.reserved")
	if !ok || id != 0 {
		t.Fatalf("reserved kind id = %d (%v), want 0", id, ok)
	}
	v, err := NewOf("wire.reserved")
	if err != nil {
		t.Fatal(err)
	}
	if _, isMsg := v.(Msg); isMsg {
		t.Fatal("reserved kind has a codec")
	}
	if _, err := DecodeBody(0, nil); err == nil {
		t.Error("DecodeBody accepted the reserved id")
	}
	if _, err := Unmarshal(AppendString(nil, "wire.reserved")); err == nil {
		t.Error("Unmarshal accepted the reserved kind")
	}
}

func TestBodyFanOutSharesEncoding(t *testing.T) {
	body, err := EncodeBody(&Text{S: "fan me out"})
	if err != nil {
		t.Fatal(err)
	}
	defer body.Release()
	var frames [][]byte
	for i := 0; i < 3; i++ {
		env := &Envelope{
			To:      InboxRef{Dapplet: netsim.Addr{Host: "h", Port: uint16(i + 1)}, Inbox: fmt.Sprintf("in%d", i)},
			Lamport: uint64(i),
		}
		frames = append(frames, AppendEnvelopeBody(nil, env, body))
	}
	for i, f := range frames {
		got, err := UnmarshalEnvelope(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.To != (InboxRef{Inbox: fmt.Sprintf("in%d", i)}) || got.Lamport != uint64(i) {
			t.Fatalf("frame %d header: %+v", i, got)
		}
		if got.Body.(*Text).S != "fan me out" {
			t.Fatalf("frame %d body: %+v", i, got.Body)
		}
	}
}

func TestBinaryEncodeZeroAlloc(t *testing.T) {
	// The acceptance contract of the codec: steady-state encode into a
	// reused buffer allocates nothing (body buffers pooled, header
	// appended in place).
	env := &Envelope{
		To:          InboxRef{Dapplet: netsim.Addr{Host: "caltech", Port: 99}, Inbox: "students"},
		FromDapplet: netsim.Addr{Host: "rice", Port: 12},
		FromOutbox:  "out",
		Session:     "s1",
		Lamport:     1 << 40,
		Body:        &Text{S: "payload-payload-payload-payload"},
	}
	buf := make([]byte, 0, 256)
	// Warm the pool outside the measured runs.
	var err error
	if buf, err = AppendEnvelope(buf[:0], env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf, err = AppendEnvelope(buf[:0], env)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("envelope encode allocates %.1f times per op, want 0", allocs)
	}

	// Decoding the same header again through one decoder allocates only
	// what the consumer keeps: the Envelope and the body.
	body, err := EncodeBody(env.Body)
	if err != nil {
		t.Fatal(err)
	}
	id, bodyBytes := body.ID(), slices.Clone(body.Bytes())
	body.Release()
	bodyAllocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBody(id, bodyBytes); err != nil {
			t.Fatal(err)
		}
	})
	var dec EnvelopeDecoder
	hdr, payload := splitFrame(t, env)
	if _, err := dec.Decode(hdr, payload); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(hdr, payload); err != nil {
			t.Fatal(err)
		}
	})
	if want := 1 + bodyAllocs; allocs != want {
		t.Fatalf("repeated-header decode allocates %.1f times per op, want %.1f (the Envelope and %.1f for the body)", allocs, want, bodyAllocs)
	}
}

// splitFrame encodes env as AppendEnvelopeHeader and AppendEnvelopePayload
// write it: split at Lamport, each half in its own slice.
func splitFrame(t testing.TB, env *Envelope) (hdr, payload []byte) {
	t.Helper()
	body, err := EncodeBody(env.Body)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Release()
	return AppendEnvelopeHeader(nil, env, body), AppendEnvelopePayload(nil, env, body)
}

// headerSets are two envelopes differing in every header string, for the
// decoder tests.
func headerSets() [2]*Envelope {
	return [2]*Envelope{
		{
			To:          InboxRef{Dapplet: netsim.Addr{Host: "caltech", Port: 99}, Inbox: "students"},
			FromDapplet: netsim.Addr{Host: "rice", Port: 12},
			FromOutbox:  "out",
			Session:     "s1",
			Lamport:     1,
			Body:        &Text{S: "one"},
		},
		{
			To:          InboxRef{Dapplet: netsim.Addr{Host: "anu.au", Port: 7}, Inbox: "grades"},
			FromDapplet: netsim.Addr{Host: "caltech", Port: 99},
			FromOutbox:  "",
			Session:     "s2",
			Lamport:     2,
			Body:        &Text{S: "two"},
		},
	}
}

// TestEnvelopeDecoderMatchesStateless decodes frames alternating between
// two header sets, and runs of each, through one decoder: every result
// equals the package function's.
func TestEnvelopeDecoderMatchesStateless(t *testing.T) {
	sets := headerSets()
	var frames, hdrs, payloads [2][]byte
	for i, env := range sets {
		var err error
		if frames[i], err = MarshalEnvelope(env); err != nil {
			t.Fatal(err)
		}
		hdrs[i], payloads[i] = splitFrame(t, env)
		if !bytes.Equal(append(slices.Clone(hdrs[i]), payloads[i]...), frames[i]) {
			t.Fatalf("set %d: the split halves are not the whole frame", i)
		}
	}
	var dec EnvelopeDecoder
	for i, pick := range []int{0, 1, 0, 1, 1, 1, 0, 0, 1, 0} {
		got, err := dec.Decode(hdrs[pick], payloads[pick])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want, err := UnmarshalEnvelope(frames[pick])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, onWire(sets[pick])) {
			t.Fatalf("frame %d (set %d): decoder gave %+v, package function %+v", i, pick, got, want)
		}
	}
}

// TestEnvelopeDecodeRejectsBadHeader: a missing header (what a sink is
// handed for a frame that left its header out when none was on record),
// one cut short, and one that runs into the payload are all errors,
// never an envelope.
func TestEnvelopeDecodeRejectsBadHeader(t *testing.T) {
	hdr, payload := splitFrame(t, headerSets()[0])
	var dec EnvelopeDecoder
	for _, c := range []struct {
		name         string
		hdr, payload []byte
	}{
		{"no header", nil, payload},
		{"header cut short", hdr[:len(hdr)-1], payload},
		{"header runs on", append(slices.Clone(hdr), payload[0]), payload[1:]},
		{"whole frame as payload", nil, append(slices.Clone(hdr), payload...)},
	} {
		if env, err := dec.Decode(c.hdr, c.payload); err == nil {
			t.Errorf("%s: decoded %+v, want an error", c.name, env)
		}
	}
}

// TestEnvelopeDecoderDoesNotAliasInput: decoded header strings are
// copies — overwriting the frames afterwards, the one a string was first
// kept from included, changes none of them.
func TestEnvelopeDecoderDoesNotAliasInput(t *testing.T) {
	env := headerSets()[0]
	var dec EnvelopeDecoder
	var frames [][]byte
	var got []*Envelope
	for range 3 { // the second and third decode return kept strings
		hdr, payload := splitFrame(t, env)
		e, err := dec.Decode(hdr, payload)
		if err != nil {
			t.Fatal(err)
		}
		frames, got = append(frames, hdr, payload), append(got, e)
	}
	whole, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	frames = append(frames, whole)
	stateless, err := UnmarshalEnvelope(whole)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, stateless)
	for _, f := range frames {
		for i := range f {
			f[i] = 'x'
		}
	}
	for i, e := range got {
		if !reflect.DeepEqual(e, onWire(env)) {
			t.Fatalf("envelope %d changed with its frame: %+v", i, e)
		}
	}
}

func TestInboxRefString(t *testing.T) {
	r := InboxRef{Dapplet: netsim.Addr{Host: "h", Port: 1}, Inbox: "grades"}
	if r.String() != "h:1/grades" {
		t.Fatalf("String = %q", r.String())
	}
	if r.IsZero() {
		t.Fatal("non-zero ref reported zero")
	}
	if !(InboxRef{}).IsZero() {
		t.Fatal("zero ref not reported zero")
	}
}
