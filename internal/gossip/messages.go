package gossip

import (
	"repro/internal/wire"
)

// The gossip wire protocol: three kinds carried on the "@gossip" service
// inbox. Anti-entropy travels as a correlated pull/delta pair (the
// requester offers its digest, the responder answers with what the
// requester is missing); rumors travel bare and one-way, forwarded
// epidemic-style with a decrementing hop budget. All three nest their
// consumer payload as an encoded body — the same wire.AppendBody pair
// the svc request frame ends with — so the substrate never needs to know
// what a digest, delta or rumor means to its topic.

// pullMsg asks a peer for the entries this node is missing: Body is the
// requesting node's digest (a topic-defined summary of its state, e.g.
// the directory's per-writer version vector).
type pullMsg struct {
	Topic  string
	BodyID uint16
	Body   []byte
}

// Kind implements wire.Msg.
func (*pullMsg) Kind() string { return "gsp.pull" }

// AppendBinary implements wire.Msg.
func (m *pullMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Topic)
	return wire.AppendBody(dst, m.BodyID, m.Body), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *pullMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Topic = r.String()
	m.BodyID, m.Body = r.Body()
	return r.Done()
}

// deltaMsg answers a pull: Body is the topic-defined delta bringing the
// requester up to date. Empty reports that the requester's digest already
// covers everything the responder holds (no body travels).
type deltaMsg struct {
	Topic  string
	Empty  bool
	BodyID uint16
	Body   []byte
}

// Kind implements wire.Msg.
func (*deltaMsg) Kind() string { return "gsp.delta" }

// AppendBinary implements wire.Msg.
func (m *deltaMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Topic)
	dst = wire.AppendBool(dst, m.Empty)
	return wire.AppendBody(dst, m.BodyID, m.Body), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *deltaMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Topic = r.String()
	m.Empty = r.Bool()
	m.BodyID, m.Body = r.Body()
	return r.Done()
}

// rumorMsg is one epidemic payload in flight: originated by Origin under
// its per-origin sequence number (the pair is the rumor's identity for
// duplicate suppression) and forwarded peer-to-peer until TTL hops are
// spent.
type rumorMsg struct {
	Topic  string
	Origin string
	Seq    uint64
	TTL    uint8
	BodyID uint16
	Body   []byte
}

// Kind implements wire.Msg.
func (*rumorMsg) Kind() string { return "gsp.rumor" }

// AppendBinary implements wire.Msg.
func (m *rumorMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Topic)
	dst = wire.AppendString(dst, m.Origin)
	dst = wire.AppendUvarint(dst, m.Seq)
	dst = wire.AppendUvarint(dst, uint64(m.TTL))
	return wire.AppendBody(dst, m.BodyID, m.Body), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *rumorMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Topic = r.String()
	m.Origin = r.String()
	m.Seq = r.Uvarint()
	m.TTL = uint8(r.Uvarint())
	m.BodyID, m.Body = r.Body()
	return r.Done()
}

func init() {
	wire.Register(&pullMsg{})
	wire.Register(&deltaMsg{})
	wire.Register(&rumorMsg{})
}
