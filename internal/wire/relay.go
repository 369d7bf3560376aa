package wire

import "repro/internal/netsim"

// RelayFrame is the relay-tree multicast carrier (kind "relay.fwd"): one
// application message travelling hop-by-hop along a session's spanning
// tree instead of over a flat per-destination fan-out. The originating
// dapplet encodes the application body exactly once (EncodeBody) and
// nests the shared bytes here; every relay re-forwards those bytes to its
// own tree neighbors without re-marshalling them. The original sender's
// identity and Lamport stamp ride along, so the envelope synthesized at
// each delivery point is indistinguishable from a directly sent one —
// FIFO-per-channel and the clock's snapshot criterion are unchanged. The
// carrier envelope's Session names the session.
type RelayFrame struct {
	// Origin is the originating dapplet's instance name; receivers key
	// their per-origin ordered-delivery state by it (names survive
	// reincarnation, addresses do not).
	Origin string
	// OriginAddr is the originating dapplet's address at send time; the
	// synthesized delivery envelope carries it as FromDapplet. The origin
	// leaves it zero (its neighbours' transport names it); relays fill it in.
	OriginAddr netsim.Addr
	// OriginOutbox is the tree-bound outbox the message left through.
	OriginOutbox string
	// Inbox is the destination inbox name at every member.
	Inbox string
	// Lamport is the origin's logical stamp at Send time (§4.2); relays
	// advance their clocks past it transitively via the carrier
	// envelopes, and the delivery envelope presents it to the
	// application.
	Lamport uint64
	// Seq is the per-(session, origin) sequence number, starting at 1;
	// receivers deliver in Seq order and drop duplicates, which makes
	// post-repair replay idempotent.
	Seq uint64
	// Epoch is the origin's tree epoch when the frame was sent; it is
	// diagnostic (forwarding always uses the relay's current view).
	Epoch uint64
	// TTL is the remaining hop budget, decremented per forward. It only
	// binds while tree views disagree mid-reconfiguration: on a
	// consistent tree the flood is cycle-free by construction.
	TTL uint32
	// BodyID and Body are the nested application message in EncodeBody
	// form: dense kind id, encoded bytes.
	BodyID uint16
	Body   []byte
}

// Kind implements Msg.
func (*RelayFrame) Kind() string { return "relay.fwd" }

// AppendBinary implements Msg.
func (m *RelayFrame) AppendBinary(dst []byte) ([]byte, error) {
	dst = AppendString(dst, m.Origin)
	dst = AppendString(dst, m.OriginAddr.Host)
	dst = AppendUvarint(dst, uint64(m.OriginAddr.Port))
	dst = AppendString(dst, m.OriginOutbox)
	dst = AppendString(dst, m.Inbox)
	dst = AppendUvarint(dst, m.Lamport)
	dst = AppendUvarint(dst, m.Seq)
	dst = AppendUvarint(dst, m.Epoch)
	dst = AppendUvarint(dst, uint64(m.TTL))
	return AppendBody(dst, m.BodyID, m.Body), nil
}

// UnmarshalBinary implements Msg. The decoded Body aliases the
// input buffer; callers that retain the frame past the buffer's lifetime
// must copy it (see CopyBody).
func (m *RelayFrame) UnmarshalBinary(data []byte) error {
	r := NewReader(data)
	m.Origin = r.String()
	m.OriginAddr.Host = r.String()
	m.OriginAddr.Port = r.Port()
	m.OriginOutbox = r.String()
	m.Inbox = r.String()
	m.Lamport = r.Uvarint()
	m.Seq = r.Uvarint()
	m.Epoch = r.Uvarint()
	ttl := r.Uvarint()
	if ttl > 0xFFFFFFFF {
		ttl = 0xFFFFFFFF
	}
	m.TTL = uint32(ttl)
	m.BodyID, m.Body = r.Body()
	return r.Done()
}

// CopyBody replaces the frame's Body with its own copy, detaching it from
// the decode buffer so the frame can be retained (replay and reorder
// buffers do this).
func (m *RelayFrame) CopyBody() {
	if m.Body != nil {
		m.Body = append([]byte(nil), m.Body...)
	}
}

func init() {
	Register(&RelayFrame{})
}
