package wire

import (
	"fmt"
	"sync"

	"repro/internal/netsim"
)

// InboxRef is the global address of an inbox: the dapplet's address (IP
// address and port) plus the inbox's name within the dapplet. The paper
// allows an inbox to be addressed "by a pair: its unique dapplet address
// ... and a string in place of its local id" (§3.2); we use the string
// form uniformly (auto-generated names stand in for bare local ids).
type InboxRef struct {
	Dapplet netsim.Addr
	Inbox   string
}

// String renders the reference as "host:port/inbox".
func (r InboxRef) String() string { return r.Dapplet.String() + "/" + r.Inbox }

// IsZero reports whether r is the zero reference.
func (r InboxRef) IsZero() bool { return r.Dapplet.IsZero() && r.Inbox == "" }

// Envelope is the header the distributed-computing layer wraps around an
// application message travelling from an outbox to an inbox.
type Envelope struct {
	// To identifies the destination inbox; only To.Inbox is framed.
	To InboxRef
	// FromDapplet is the sending dapplet's address, as the transport saw it.
	FromDapplet netsim.Addr
	// FromOutbox is the name of the sending outbox.
	FromOutbox string
	// Session, when non-empty, tags the session on whose behalf the
	// message travels.
	Session string
	// Lamport is the sender's logical timestamp (§4.2 "Clocks"); the
	// receiving layer advances its clock past this value, establishing
	// the global snapshot criterion.
	Lamport uint64
	// Body is the application message.
	Body Msg
}

// Envelope framing. A frame is:
//
//	[0]      envMagic (0xC0; anything else is not an envelope)  ─┐
//	uvarint  kind id (dense, assigned at registration)           │ header
//	string   To.Inbox                                            │ (string = uvarint
//	string   FromOutbox                                          │ length + bytes)
//	string   Session                                            ─┘
//	uvarint  Lamport                                            ─┐ payload
//	...      body bytes (to end of frame): AppendBinary form    ─┘
//
// The frame splits at Lamport. The header is what every message on one
// channel (one outbox to one inbox, in one session) repeats, so the
// transport sends it only when it changes; the payload is what differs
// per message. AppendEnvelopeHeader and AppendEnvelopePayload write the
// halves and EnvelopeDecoder.Decode reads them; the one-slice functions
// work on their concatenation.
//
// No dapplet address is framed: the datagram names both ends, so the
// receiver fills them in and UnmarshalEnvelope leaves them zero. A frame
// under 0xBF, the layout that framed both, fails the magic check.
const envMagic = 0xC0

// bodyPool recycles body encode buffers so steady-state marshalling
// performs no allocation. Buffers grow to fit and keep their capacity
// across uses; ones grown past MaxPooledBuf are dropped on release so one
// huge payload cannot pin memory for the lifetime of the pool.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// MaxPooledBuf is the largest buffer capacity the wire and send-path
// pools retain; larger buffers are left to the GC.
const MaxPooledBuf = 64 << 10

func releaseBodyBuf(bufp *[]byte) {
	if cap(*bufp) <= MaxPooledBuf {
		bodyPool.Put(bufp)
	}
}

// Body is a message body encoded exactly once, ready to be fanned out
// into any number of envelopes (Outbox.Send re-encodes only the header
// words per destination). The encoded bytes live in a pooled buffer;
// callers must Release the Body when the last envelope using it has been
// handed to the transport, and must not retain Bytes past Release.
type Body struct {
	id  uint16
	buf *[]byte
}

// Bytes returns the encoded body bytes.
func (b Body) Bytes() []byte {
	if b.buf == nil {
		return nil
	}
	return *b.buf
}

// ID returns the dense kind id the body was encoded under.
func (b Body) ID() uint16 { return b.id }

// Release returns the encode buffer to the pool. Safe to call once.
func (b *Body) Release() {
	if b.buf != nil {
		releaseBodyBuf(b.buf)
		b.buf = nil
	}
}

// EncodeBody marshals a registered message body once.
func EncodeBody(m Msg) (Body, error) {
	if m == nil {
		return Body{}, fmt.Errorf("wire: marshal nil message")
	}
	e := lookup(m.Kind())
	if e == nil {
		return Body{}, fmt.Errorf("wire: kind %q not registered", m.Kind())
	}
	bufp := bodyPool.Get().(*[]byte)
	b, err := m.AppendBinary((*bufp)[:0])
	if err != nil {
		releaseBodyBuf(bufp)
		return Body{}, fmt.Errorf("wire: marshal %q body: %w", m.Kind(), err)
	}
	*bufp = b
	return Body{id: e.id, buf: bufp}, nil
}

// DecodeBody reconstructs a registered message from an encoded body — the
// inverse of EncodeBody. The nested framing (dense kind id, payload
// bytes; see AppendBody) is how the svc, gossip and relay layers carry an
// application message inside their own frames.
func DecodeBody(id uint16, data []byte) (Msg, error) {
	e := entryByID(id)
	if e == nil {
		return nil, fmt.Errorf("wire: unknown message kind id %d", id)
	}
	return decodeBody(e, data)
}

func decodeBody(e *regEntry, data []byte) (Msg, error) {
	m, err := newMsg(e)
	if err != nil {
		return nil, err
	}
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("wire: decode %q body: %w", e.kind, err)
	}
	return m, nil
}

// DecodeBodyInto decodes an encoded body into an existing message, whose
// kind must match the one registered under id.
func DecodeBodyInto(id uint16, data []byte, into Msg) error {
	e := entryByID(id)
	if e == nil {
		return fmt.Errorf("wire: unknown message kind id %d", id)
	}
	if into.Kind() != e.kind {
		return fmt.Errorf("wire: body is %q, not %q", e.kind, into.Kind())
	}
	if err := into.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("wire: decode %q body: %w", e.kind, err)
	}
	return nil
}

// AppendEnvelopeBody appends the frame for header e around an
// already-encoded body, allocating only if dst lacks capacity. e.Body is
// ignored; the body bytes come from body.
func AppendEnvelopeBody(dst []byte, e *Envelope, body Body) []byte {
	return AppendEnvelopePayload(AppendEnvelopeHeader(dst, e, body), e, body)
}

// AppendEnvelopeHeader appends the header half of the frame for e and
// body: magic, kind id, To.Inbox, FromOutbox and Session.
func AppendEnvelopeHeader(dst []byte, e *Envelope, body Body) []byte {
	dst = append(dst, envMagic)
	dst = AppendUvarint(dst, uint64(body.id))
	dst = AppendString(dst, e.To.Inbox)
	dst = AppendString(dst, e.FromOutbox)
	return AppendString(dst, e.Session)
}

// AppendEnvelopePayload appends the payload half of the frame for e and
// body: Lamport and the body bytes.
func AppendEnvelopePayload(dst []byte, e *Envelope, body Body) []byte {
	dst = AppendUvarint(dst, e.Lamport)
	return append(dst, body.Bytes()...)
}

// AppendEnvelope appends the frame for a complete envelope (header +
// registered body) to dst. With a caller-reused dst the encode performs
// zero heap allocations.
func AppendEnvelope(dst []byte, e *Envelope) ([]byte, error) {
	body, err := EncodeBody(e.Body)
	if err != nil {
		return nil, fmt.Errorf("wire: envelope body: %w", err)
	}
	dst = AppendEnvelopeBody(dst, e, body)
	body.Release()
	return dst, nil
}

// MarshalEnvelope converts an envelope to its wire form.
func MarshalEnvelope(e *Envelope) ([]byte, error) {
	return AppendEnvelope(nil, e)
}

// UnmarshalEnvelope reconstructs an envelope and its typed body from a
// whole frame. A frame that does not start with the magic byte is an
// error. It is EnvelopeDecoder.Decode without header reuse, on a frame
// not yet split at Lamport.
func UnmarshalEnvelope(data []byte) (*Envelope, error) {
	r := Reader{data: data}
	var hdr [hdrStrings]string
	id, err := (*EnvelopeDecoder)(nil).header(&r, &hdr)
	if err != nil {
		return nil, err
	}
	env := headerEnvelope(&hdr)
	return decodePayload(&env, id, data[r.off:])
}

// EnvelopeDecoder decodes split envelope frames, reusing header strings: for
// each of the three string header fields it keeps the last string it
// decoded, and returns that string again when the next frame carries the
// same bytes there. Frames on one channel repeat their headers, so in the
// steady state a decode allocates only the Envelope and its body, and a
// lent decode (Lend) allocates nothing. A kept string is a copy, never an
// alias of a frame. The zero value is ready to use; a decoder is not safe
// for concurrent use.
type EnvelopeDecoder struct {
	last [hdrStrings]string
	// hdr and id are the header Header read last, which Payload and Lend
	// complete.
	hdr [hdrStrings]string
	id  uint16
	// lent is Lend's scratch, made on its first use: a decoder that
	// never lends (most of a swarm's dapplets) carries one nil pointer.
	lent *lentScratch
}

// lentScratch is what EnvelopeDecoder.Lend reuses: the Envelope it hands
// out and the body values it decodes into.
type lentScratch struct {
	env    Envelope
	bodies BodyScratch
}

// BodyScratch is a table of body values, one per kind, each made the
// first time a body of its kind is decoded and decoded over by every
// later one, so a decoder that lends what it decodes allocates nothing
// once it has seen a kind: EnvelopeDecoder.Lend decodes envelope bodies
// into one, and an svc server the requests nested in its frames. The
// zero value is empty and ready to use; a BodyScratch is not safe for
// concurrent use.
type BodyScratch struct {
	byID []Msg
}

// Decode decodes data, a body of kind id, over the scratch's value of
// that kind and returns it. The result is lent: it is valid until the
// next Decode of its kind, and its user must copy what it keeps. Every
// kind's UnmarshalBinary sets each field, so nothing of the body before
// shows through; strings it reads with Reader.ReuseString cost nothing
// while the bytes repeat.
func (s *BodyScratch) Decode(id uint16, data []byte) (Msg, error) {
	m, err := s.value(id)
	if err != nil {
		return nil, err
	}
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("wire: decode %q body: %w", m.Kind(), err)
	}
	return m, nil
}

// value returns the scratch's value for kind id, making it the first
// time.
func (s *BodyScratch) value(id uint16) (Msg, error) {
	if int(id) < len(s.byID) && s.byID[id] != nil {
		return s.byID[id], nil
	}
	e := entryByID(id)
	if e == nil {
		return nil, fmt.Errorf("wire: unknown message kind id %d", id)
	}
	m, err := newMsg(e)
	if err != nil {
		return nil, err
	}
	if n := int(id) + 1; n > len(s.byID) {
		s.byID = append(s.byID, make([]Msg, n-len(s.byID))...)
	}
	s.byID[id] = m
	return m, nil
}

// The string header fields, indexing EnvelopeDecoder.last and hdr.
const (
	hdrToInbox = iota
	hdrFromOutbox
	hdrSession
	hdrStrings
)

// Decode reconstructs an envelope from a frame split at Lamport, as
// AppendEnvelopeHeader and AppendEnvelopePayload wrote it, reusing the
// strings of earlier frames this decoder read: Header, then Payload.
func (d *EnvelopeDecoder) Decode(hdr, payload []byte) (*Envelope, error) {
	if _, err := d.Header(hdr); err != nil {
		return nil, err
	}
	return d.Payload(payload)
}

// Header reads the header half of a frame and returns the inbox it
// addresses (To.Inbox), so that the caller can choose how to complete
// the decode: Payload or Lend. A header that is empty, lacks the magic
// byte or runs on past Session is an error.
func (d *EnvelopeDecoder) Header(hdr []byte) (string, error) {
	r := Reader{data: hdr}
	id, err := d.header(&r, &d.hdr)
	if err != nil {
		return "", err
	}
	if err := r.Done(); err != nil {
		return "", fmt.Errorf("wire: bad envelope header: %w", err)
	}
	d.id = id
	return d.hdr[hdrToInbox], nil
}

// Payload decodes the payload half of the frame whose header Header read
// last into a new Envelope and body, which the caller owns.
func (d *EnvelopeDecoder) Payload(payload []byte) (*Envelope, error) {
	env := headerEnvelope(&d.hdr)
	return decodePayload(&env, d.id, payload)
}

// Lend is Payload into the decoder's own scratch: one Envelope, and one
// body value per kind (a BodyScratch), each made the first time it is
// needed and reused by every later Lend. The result is lent, as
// bufio.Scanner.Bytes is: it is valid until the decoder's next call, and
// its user must copy what it keeps.
func (d *EnvelopeDecoder) Lend(payload []byte) (*Envelope, error) {
	r := Reader{data: payload}
	lamport := r.Uvarint()
	data := r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: bad envelope: %w", err)
	}
	if d.lent == nil {
		d.lent = new(lentScratch)
	}
	m, err := d.lent.bodies.Decode(d.id, data)
	if err != nil {
		return nil, err
	}
	env := &d.lent.env
	*env = headerEnvelope(&d.hdr)
	env.Lamport, env.Body = lamport, m
	return env, nil
}

// header reads the header half of a frame into hdr and returns the kind
// id, reusing kept strings unless d is nil.
func (d *EnvelopeDecoder) header(r *Reader, hdr *[hdrStrings]string) (uint16, error) {
	if len(r.data) == 0 || r.data[0] != envMagic {
		return 0, fmt.Errorf("wire: bad envelope: no magic byte")
	}
	r.off = 1
	id := r.uint16("kind id")
	for field := range hdr {
		hdr[field] = d.string(r, field)
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("wire: bad envelope: %w", err)
	}
	return id, nil
}

// headerEnvelope is an Envelope holding the header strings hdr.
func headerEnvelope(hdr *[hdrStrings]string) Envelope {
	return Envelope{To: InboxRef{Inbox: hdr[hdrToInbox]}, FromOutbox: hdr[hdrFromOutbox], Session: hdr[hdrSession]}
}

// decodePayload reads the payload half of a frame into env: Lamport, then
// a body of kind id.
func decodePayload(env *Envelope, id uint16, payload []byte) (*Envelope, error) {
	r := Reader{data: payload}
	env.Lamport = r.Uvarint()
	body := r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: bad envelope: %w", err)
	}
	m, err := DecodeBody(id, body)
	if err != nil {
		return nil, err
	}
	env.Body = m
	return env, nil
}

// string reads header string field, returning the kept copy when the
// bytes match it and keeping the interned one when they do not.
func (d *EnvelopeDecoder) string(r *Reader, field int) string {
	b := r.Bytes()
	switch {
	case len(b) == 0:
		return ""
	case d == nil:
		return intern(b)
	case string(b) != d.last[field]:
		d.last[field] = intern(b)
	}
	return d.last[field]
}
