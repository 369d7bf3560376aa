package snapshot

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// ControlInbox is the well-known inbox name for snapshot control traffic.
const ControlInbox = "@snap"

// Member identifies one snapshot participant.
type Member struct {
	Name string
	Addr netsim.Addr
}

// ChannelKey identifies the directed channel between two participants.
type ChannelKey struct {
	From string
	To   string
}

// String renders the key as "from->to".
func (k ChannelKey) String() string { return k.From + "->" + k.To }

// Global is an assembled global snapshot.
type Global struct {
	ID string
	// States maps participant name to its recorded local state, as its
	// StateFunc encoded it.
	States map[string][]byte
	// Channels maps directed channels to the in-flight application
	// messages captured in the channel state (message bodies in
	// wire.Marshal form).
	Channels map[ChannelKey][][]byte
	// Sent and Recv count frames, not application messages: every data
	// frame the sender's transport sequenced on the channel before the
	// sender's record point, and every one the receiver took off it
	// before the receiver's record point, service traffic included
	// (transport.Reliable.Counts). Crossed counts the frames of the
	// channel state: those the receiver took after its record point and
	// before the channel's marker or flush. Channels holds the
	// application messages among them.
	Sent    map[ChannelKey]uint64
	Recv    map[ChannelKey]uint64
	Crossed map[ChannelKey]uint64
}

// InFlight returns the total number of application messages captured in
// channel states.
func (g *Global) InFlight() int {
	n := 0
	for _, msgs := range g.Channels {
		n += len(msgs)
	}
	return n
}

// CheckConsistent verifies the cut, in frames: for every channel p->q,
// sent_at_record(p->q) == recv_at_record(q<-p) + frames in the channel
// state (Crossed). A violation means a frame was received before the cut
// but sent after it, or one sent before it was neither received nor
// recorded in flight: an inconsistent snapshot. The application messages
// captured on a channel are among its crossed frames, so a channel that
// holds more of them than it crossed captured one twice, or one from
// outside the channel state.
func (g *Global) CheckConsistent() error {
	keys := make(map[ChannelKey]bool)
	for _, m := range []map[ChannelKey]uint64{g.Sent, g.Recv, g.Crossed} {
		for k := range m {
			keys[k] = true
		}
	}
	for k := range g.Channels {
		keys[k] = true
	}
	for k := range keys {
		sent := g.Sent[k]
		recv := g.Recv[k]
		fly := g.Crossed[k]
		if sent != recv+fly {
			return fmt.Errorf("snapshot: channel %s inconsistent: sent=%d recv=%d in-flight=%d",
				k, sent, recv, fly)
		}
		if n := len(g.Channels[k]); uint64(n) > fly {
			return fmt.Errorf("snapshot: channel %s captured %d messages from %d crossed frames", k, n, fly)
		}
	}
	return nil
}

// --- control messages ---

// markerMsg is the Chandy–Lamport marker.
type markerMsg struct {
	SnapID  string
	From    string
	ReplyTo wire.InboxRef
}

func (*markerMsg) Kind() string { return "snap.marker" }

// AppendBinary implements wire.Msg.
func (m *markerMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SnapID)
	dst = wire.AppendString(dst, m.From)
	return wire.AppendInboxRef(dst, m.ReplyTo), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *markerMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SnapID = r.String()
	m.From = r.String()
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

// startMsg tells one member to initiate a marker snapshot.
type startMsg struct {
	SnapID  string
	ReplyTo wire.InboxRef
}

func (*startMsg) Kind() string { return "snap.start" }

// AppendBinary implements wire.Msg.
func (m *startMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SnapID)
	return wire.AppendInboxRef(dst, m.ReplyTo), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *startMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SnapID = r.String()
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

// takeMsg arms a clock-based checkpoint at logical time T.
type takeMsg struct {
	SnapID  string
	T       uint64
	ReplyTo wire.InboxRef
}

func (*takeMsg) Kind() string { return "snap.take" }

// AppendBinary implements wire.Msg.
func (m *takeMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SnapID)
	dst = wire.AppendUvarint(dst, m.T)
	return wire.AppendInboxRef(dst, m.ReplyTo), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *takeMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SnapID = r.String()
	m.T = r.Uvarint()
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

// collectMsg asks a member to finalize a clock checkpoint. Its Lamport
// stamp exceeds T by construction, so any member not yet triggered records
// upon its arrival; the member reports once flushes from all peers have
// arrived. It follows the take on the coordinator's FIFO channel, so a
// member that has it will hear nothing more of the run.
type collectMsg struct {
	SnapID string
}

func (*collectMsg) Kind() string { return "snap.collect" }

// AppendBinary implements wire.Msg.
func (m *collectMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendString(dst, m.SnapID), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *collectMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SnapID = r.String()
	return r.Done()
}

// flushMsg terminates channel-state recording for a clock checkpoint. A
// member sends it on every outgoing channel as it records, in the same
// step against its sends, so on the FIFO channel every frame sent before
// the record precedes it and every frame sent after follows it; one
// arriving at a member that has not recorded yet makes it record first.
type flushMsg struct {
	SnapID  string
	T       uint64
	From    string
	ReplyTo wire.InboxRef
}

func (*flushMsg) Kind() string { return "snap.flush" }

// AppendBinary implements wire.Msg.
func (m *flushMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SnapID)
	dst = wire.AppendUvarint(dst, m.T)
	dst = wire.AppendString(dst, m.From)
	return wire.AppendInboxRef(dst, m.ReplyTo), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *flushMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SnapID = r.String()
	m.T = r.Uvarint()
	m.From = r.String()
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

// reportMsg carries one member's contribution to the coordinator. The
// maps are keyed by peer name and written in sorted key order, so equal
// reports encode to equal bytes.
type reportMsg struct {
	SnapID string
	Name   string
	// State is the member's recorded local state, as StateFunc encoded
	// it (opaque to the codec).
	State   []byte
	SentAt  map[string]uint64
	RecvAt  map[string]uint64
	Crossed map[string]uint64
	// Channels holds each inbound channel's captured messages in
	// wire.Marshal form.
	Channels map[string][][]byte
}

func (*reportMsg) Kind() string { return "snap.report" }

func appendCounts(dst []byte, m map[string]uint64) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendUvarint(dst, m[k])
	}
	return dst
}

func readCounts(r *wire.Reader) map[string]uint64 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := r.String()
		m[k] = r.Uvarint()
	}
	return m
}

// AppendBinary implements wire.Msg.
func (m *reportMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SnapID)
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendBytes(dst, m.State)
	dst = appendCounts(dst, m.SentAt)
	dst = appendCounts(dst, m.RecvAt)
	dst = appendCounts(dst, m.Crossed)
	dst = wire.AppendUvarint(dst, uint64(len(m.Channels)))
	for _, peer := range slices.Sorted(maps.Keys(m.Channels)) {
		msgs := m.Channels[peer]
		dst = wire.AppendString(dst, peer)
		dst = wire.AppendUvarint(dst, uint64(len(msgs)))
		for _, body := range msgs {
			dst = wire.AppendBytes(dst, body)
		}
	}
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *reportMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SnapID = r.String()
	m.Name = r.String()
	m.State = r.Bytes()
	m.SentAt = readCounts(r)
	m.RecvAt = readCounts(r)
	m.Crossed = readCounts(r)
	m.Channels = nil
	if n := r.Count(); n > 0 {
		m.Channels = make(map[string][][]byte, n)
		for i := 0; i < n; i++ {
			peer := r.String()
			var msgs [][]byte
			if k := r.Count(); k > 0 {
				msgs = make([][]byte, k)
				for j := range msgs {
					msgs[j] = r.Bytes()
				}
			}
			m.Channels[peer] = msgs
		}
	}
	return r.Done()
}

func init() {
	wire.Register(&markerMsg{})
	wire.Register(&startMsg{})
	wire.Register(&takeMsg{})
	wire.Register(&collectMsg{})
	wire.Register(&flushMsg{})
	wire.Register(&reportMsg{})
}

// isAppEnvelope reports whether an envelope carries application traffic
// (service inboxes are conventionally prefixed with '@').
func isAppEnvelope(env *wire.Envelope) bool {
	return len(env.To.Inbox) > 0 && env.To.Inbox[0] != '@'
}
