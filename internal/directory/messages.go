package directory

import (
	"repro/internal/netsim"
	"repro/internal/wire"
)

// The directory service protocol: four request kinds (register, remove,
// lookup, watch) and three server-originated kinds (ack, lookup reply,
// watch event), all carried as binary wire messages on the "@dir" service
// inbox. Correlation ids, reply inboxes and deadlines belong to the svc
// framework (internal/svc) the requests travel on; the messages here
// carry only directory payload. Watch events are pushed bare to the
// subscribed caller's reply inbox, outside any request/reply pair.

// registerMsg adds or replaces one entry on a replica. Lam/Writer/Seq are
// the client's write stamp: the same stamp fans out to every replica of
// the shard, so they all order this write identically for
// last-writer-wins reconciliation (see wstamp).
type registerMsg struct {
	Name   string
	Typ    string
	Addr   netsim.Addr
	Lam    uint64
	Writer string
	Seq    uint64
}

// Kind implements wire.Msg.
func (*registerMsg) Kind() string { return "dir.reg" }

// AppendBinary implements wire.Msg.
func (m *registerMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendString(dst, m.Typ)
	dst = wire.AppendString(dst, m.Addr.Host)
	dst = wire.AppendUvarint(dst, uint64(m.Addr.Port))
	dst = wire.AppendUvarint(dst, m.Lam)
	dst = wire.AppendString(dst, m.Writer)
	return wire.AppendUvarint(dst, m.Seq), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *registerMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	m.Typ = r.String()
	m.Addr.Host = r.String()
	m.Addr.Port = r.Port()
	m.Lam = r.Uvarint()
	m.Writer = r.String()
	m.Seq = r.Uvarint()
	return r.Done()
}

// removeMsg deletes one entry by name, under the client's write stamp
// (same role as in registerMsg).
type removeMsg struct {
	Name   string
	Lam    uint64
	Writer string
	Seq    uint64
}

// Kind implements wire.Msg.
func (*removeMsg) Kind() string { return "dir.rm" }

// AppendBinary implements wire.Msg.
func (m *removeMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendUvarint(dst, m.Lam)
	dst = wire.AppendString(dst, m.Writer)
	return wire.AppendUvarint(dst, m.Seq), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *removeMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	m.Lam = r.Uvarint()
	m.Writer = r.String()
	m.Seq = r.Uvarint()
	return r.Done()
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
// frame's ReplyTo) to the replica's invalidation events.
type watchMsg struct{}

// Kind implements wire.Msg.
func (*watchMsg) Kind() string { return "dir.watch" }

// AppendBinary implements wire.Msg.
func (m *watchMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

// UnmarshalBinary implements wire.Msg.
func (m *watchMsg) UnmarshalBinary(data []byte) error {
	return wire.NewReader(data).Done()
}

// unwatchMsg unsubscribes an inbox from the replica's invalidation
// events; a client failing over to another replica sends it one-way
// (best effort, no reply) so the abandoned replica stops pushing events
// it would discard anyway.
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

// ackMsg answers a register, remove or watch request. Version is the
// replica's version counter after the mutation (unchanged for a remove of
// an unknown name); OK reports whether the request changed anything.
type ackMsg struct {
	Version uint64
	OK      bool
}

// Kind implements wire.Msg.
func (*ackMsg) Kind() string { return "dir.ack" }

// AppendBinary implements wire.Msg.
func (m *ackMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, m.Version)
	return wire.AppendBool(dst, m.OK), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *ackMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Version = r.Uvarint()
	m.OK = r.Bool()
	return r.Done()
}

// lookupRepMsg answers a lookup. Version stamps the entry with the
// replica's version counter at resolution time, the basis of the client
// cache's staleness check.
type lookupRepMsg struct {
	Name    string
	Typ     string
	Addr    netsim.Addr
	Version uint64
	Found   bool
}

// Kind implements wire.Msg.
func (*lookupRepMsg) Kind() string { return "dir.rep" }

// AppendBinary implements wire.Msg.
func (m *lookupRepMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendString(dst, m.Typ)
	dst = wire.AppendString(dst, m.Addr.Host)
	dst = wire.AppendUvarint(dst, uint64(m.Addr.Port))
	dst = wire.AppendUvarint(dst, m.Version)
	return wire.AppendBool(dst, m.Found), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *lookupRepMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	m.Typ = r.String()
	m.Addr.Host = r.String()
	m.Addr.Port = r.Port()
	m.Version = r.Uvarint()
	m.Found = r.Bool()
	return r.Done()
}

// eventMsg is pushed to watchers on every mutation: a register (Removed
// false, entry fields set) or a removal/expiry (Removed true). A watcher
// applies the event if its version exceeds the version it has cached.
type eventMsg struct {
	Name    string
	Typ     string
	Addr    netsim.Addr
	Version uint64
	Removed bool
}

// Kind implements wire.Msg.
func (*eventMsg) Kind() string { return "dir.event" }

// AppendBinary implements wire.Msg.
func (m *eventMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendString(dst, m.Typ)
	dst = wire.AppendString(dst, m.Addr.Host)
	dst = wire.AppendUvarint(dst, uint64(m.Addr.Port))
	dst = wire.AppendUvarint(dst, m.Version)
	return wire.AppendBool(dst, m.Removed), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *eventMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	m.Typ = r.String()
	m.Addr.Host = r.String()
	m.Addr.Port = r.Port()
	m.Version = r.Uvarint()
	m.Removed = r.Bool()
	return r.Done()
}

func init() {
	wire.Register(&registerMsg{})
	wire.Register(&removeMsg{})
	wire.Register(&lookupMsg{})
	wire.Register(&watchMsg{})
	wire.Register(&unwatchMsg{})
	wire.Register(&ackMsg{})
	wire.Register(&lookupRepMsg{})
	wire.Register(&eventMsg{})
}
