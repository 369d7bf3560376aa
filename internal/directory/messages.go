package directory

import (
	"repro/internal/wire"
)

// The directory service protocol: one record kind and three requests
// (lookup, watch, unwatch), all carried as binary wire messages on the
// "@dir" service inbox. A record is the put request (a register, or a
// remove when dead), the answer to a put or a lookup (the record that
// governs the name at the answering replica) and the event pushed to
// watchers. Correlation ids, reply inboxes and deadlines belong to the
// svc framework (internal/svc) the requests travel on; a watch is
// answered with an empty acknowledgement. Events are pushed bare to the
// subscribed caller's reply inbox, outside any request/reply pair.

// wstamp orders one write across replicas: Lam is the writer's Lamport
// time when it issued the write, Writer its endpoint identity, Seq its
// per-writer write sequence number. The triple totally orders all writes
// — Lam first (causally later writes carry larger times, since every
// message merges clocks), then Writer and Seq as tie-breaks — which is
// what lets two replicas, or a client hearing from both, settle on the
// same record whatever order the writes arrived in (last-writer-wins).
type wstamp struct {
	Lam    uint64
	Writer string
	Seq    uint64
}

// less reports whether st orders strictly before o.
func (st wstamp) less(o wstamp) bool {
	if st.Lam != o.Lam {
		return st.Lam < o.Lam
	}
	if st.Writer != o.Writer {
		return st.Writer < o.Writer
	}
	return st.Seq < o.Seq
}

// record is one name's state, alive or tombstoned, under the stamp of
// the write that produced it: a replica's slot, a client's cache slot
// and the one message the protocol moves them in. Tombstones retain the
// last entry (type, address) so a failure-driven expiry can be undone by
// Reincarnate when the dapplet is heard from again.
type record struct {
	Entry   Entry
	Dead    bool
	Expired bool // dead via ExpireOwner, not Remove
	Stamp   wstamp
}

// Kind implements wire.Msg.
func (*record) Kind() string { return "dir.rec" }

// AppendBinary implements wire.Msg.
func (r *record) AppendBinary(dst []byte) ([]byte, error) { return r.append(dst), nil }

// UnmarshalBinary implements wire.Msg.
func (r *record) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.read(rd)
	return rd.Done()
}

// append encodes the record; a delta carries records back to back.
func (r *record) append(dst []byte) []byte {
	dst = wire.AppendString(dst, r.Entry.Name)
	dst = wire.AppendString(dst, r.Entry.Type)
	dst = wire.AppendString(dst, r.Entry.Addr.Host)
	dst = wire.AppendUvarint(dst, uint64(r.Entry.Addr.Port))
	dst = wire.AppendBool(dst, r.Dead)
	dst = wire.AppendBool(dst, r.Expired)
	dst = wire.AppendUvarint(dst, r.Stamp.Lam)
	dst = wire.AppendString(dst, r.Stamp.Writer)
	return wire.AppendUvarint(dst, r.Stamp.Seq)
}

// read decodes one record written by append.
func (r *record) read(rd *wire.Reader) {
	r.Entry.Name = rd.String()
	r.Entry.Type = rd.String()
	r.Entry.Addr.Host = rd.String()
	r.Entry.Addr.Port = rd.Port()
	r.Dead = rd.Bool()
	r.Expired = rd.Bool()
	r.Stamp.Lam = rd.Uvarint()
	r.Stamp.Writer = rd.String()
	r.Stamp.Seq = rd.Uvarint()
}

// lookupMsg resolves one name.
type lookupMsg struct {
	Name string
}

// Kind implements wire.Msg.
func (*lookupMsg) Kind() string { return "dir.lookup" }

// AppendBinary implements wire.Msg.
func (m *lookupMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendString(dst, m.Name), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *lookupMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	return r.Done()
}

// watchMsg subscribes the requesting caller's reply inbox (the svc
// frame's ReplyTo) to the replica's records as they change.
type watchMsg struct{}

// Kind implements wire.Msg.
func (*watchMsg) Kind() string { return "dir.watch" }

// AppendBinary implements wire.Msg.
func (m *watchMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

// UnmarshalBinary implements wire.Msg.
func (m *watchMsg) UnmarshalBinary(data []byte) error {
	return wire.NewReader(data).Done()
}

// unwatchMsg unsubscribes an inbox from the replica's events; a client
// leaving a replica sends it one-way (best effort, no reply) so the
// abandoned replica stops pushing events to it.
type unwatchMsg struct {
	ReplyTo wire.InboxRef
}

// Kind implements wire.Msg.
func (*unwatchMsg) Kind() string { return "dir.unwatch" }

// AppendBinary implements wire.Msg.
func (m *unwatchMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendInboxRef(dst, m.ReplyTo), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *unwatchMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

func init() {
	wire.Register(&record{})
	wire.Register(&lookupMsg{})
	wire.Register(&watchMsg{})
	wire.Register(&unwatchMsg{})
}
