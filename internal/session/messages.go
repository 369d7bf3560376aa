package session

import (
	"repro/internal/netsim"
	"repro/internal/state"
	"repro/internal/wire"
)

// ControlInbox is the well-known inbox name the session service listens
// on; every session-capable dapplet has one.
const ControlInbox = "@session"

// Participant describes one member of a session.
type Participant struct {
	// Name is the dapplet's directory name.
	Name string
	// Addr is the dapplet's global address (resolved from the directory
	// by the initiator when zero).
	Addr netsim.Addr
	// Role is the application role ("calendar", "secretary",
	// "coordinator"); the behaviour interprets it.
	Role string
	// Access declares the state variables the session reads and writes
	// at this participant (§2.2); the participant's store enforces it.
	Access state.AccessSet
}

// Binding instructs a participant to bind one of its outboxes to a remote
// inbox, creating a directed FIFO channel.
type Binding struct {
	Outbox string
	To     wire.InboxRef
}

// Link is one directed channel in a session wiring spec, expressed with
// directory names; the initiator resolves it into a Binding.
type Link struct {
	From   string // participant name owning the outbox
	Outbox string // outbox name at From
	To     string // participant name owning the inbox
	Inbox  string // inbox name at To
}

// TreeSpec selects relay-tree multicast for a session: every participant
// gets the named outbox bound to the session's spanning tree (fanout-k
// over the roster order, see internal/relay) and the named inbox created
// to receive the multicast. Send on that outbox then costs O(k) at the
// sender regardless of group size, with each participant re-forwarding
// the marshal-once bytes to its own tree neighbors. A tree spec also
// says the group may be large, so its participants are told their tree
// neighbours rather than the whole roster (see Membership.Roster).
type TreeSpec struct {
	// Outbox is the tree-bound outbox name at every participant.
	Outbox string
	// Inbox is the delivery inbox name at every participant.
	Inbox string
	// Fanout is the tree fanout k (default relay.DefaultFanout).
	Fanout int
}

// Spec is a complete session description handed to an initiator.
type Spec struct {
	// ID is the session identifier; Initiate generates one if empty.
	ID string
	// Task is a human-readable description of what the session does.
	Task string
	// Participants lists the members.
	Participants []Participant
	// Links wires the members' outboxes to inboxes.
	Links []Link
	// Tree, when non-nil, additionally wires every participant into a
	// relay multicast tree.
	Tree *TreeSpec
}

// inviteMsg asks a dapplet to join a session. It travels as an svc
// request (the framework carries the correlation id and reply inbox);
// the reply is an inviteRepMsg, sent once an accepting dapplet has
// linked itself up.
type inviteMsg struct {
	SessionID string
	Task      string
	Role      string
	Access    state.AccessSet
	// Bindings are the outbox bindings this participant creates when it
	// accepts.
	Bindings []Binding
	// Inboxes are inbox names this participant must ensure exist.
	Inboxes []string
	// Roster is what this participant is told of the membership (names,
	// addresses and roles). On a flat session that is everyone, so
	// behaviours can find their peers by role. On a tree session (Tree
	// non-nil) it is the participant's view — itself first, then its
	// tree parent (none at the root), then its children — which is all
	// it binds, so an invite stays O(k) however large the group.
	Roster []Participant
	// Size is the number of participants in the whole session.
	Size int
	// Tree, when non-nil, wires this participant into the session's
	// relay multicast tree when it accepts.
	Tree *TreeSpec
	// Depth is the tree's root-to-leaf hop count, from which the relay
	// sets its hop budget (0 on a flat session).
	Depth int
	// Epoch is the tree version this invite installs (1 at Initiate).
	Epoch uint64
}

func (*inviteMsg) Kind() string { return "session.invite" }

// appendTreeSpec / readTreeSpec encode an optional TreeSpec.
func appendTreeSpec(dst []byte, t *TreeSpec) []byte {
	dst = wire.AppendBool(dst, t != nil)
	if t == nil {
		return dst
	}
	dst = wire.AppendString(dst, t.Outbox)
	dst = wire.AppendString(dst, t.Inbox)
	return wire.AppendVarint(dst, int64(t.Fanout))
}

func readTreeSpec(r *wire.Reader) *TreeSpec {
	if !r.Bool() {
		return nil
	}
	return &TreeSpec{
		Outbox: r.String(),
		Inbox:  r.String(),
		Fanout: int(r.Varint()),
	}
}

// appendAccess / readAccess encode a state.AccessSet.
func appendAccess(dst []byte, a state.AccessSet) []byte {
	dst = wire.AppendStringSlice(dst, a.Read)
	return wire.AppendStringSlice(dst, a.Write)
}

func readAccess(r *wire.Reader) state.AccessSet {
	return state.AccessSet{Read: r.StringSlice(), Write: r.StringSlice()}
}

func appendBindings(dst []byte, bs []Binding) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(bs)))
	for _, b := range bs {
		dst = wire.AppendString(dst, b.Outbox)
		dst = wire.AppendInboxRef(dst, b.To)
	}
	return dst
}

func readBindings(r *wire.Reader) []Binding {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]Binding, n)
	for i := range out {
		out[i].Outbox = r.String()
		out[i].To = r.InboxRef()
	}
	return out
}

func appendParticipants(dst []byte, ps []Participant) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ps)))
	for _, p := range ps {
		dst = wire.AppendString(dst, p.Name)
		dst = wire.AppendString(dst, p.Addr.Host)
		dst = wire.AppendUvarint(dst, uint64(p.Addr.Port))
		dst = wire.AppendString(dst, p.Role)
		dst = appendAccess(dst, p.Access)
	}
	return dst
}

func readParticipants(r *wire.Reader) []Participant {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]Participant, n)
	for i := range out {
		out[i].Name = r.String()
		out[i].Addr.Host = r.String()
		out[i].Addr.Port = r.Port()
		out[i].Role = r.String()
		out[i].Access = readAccess(r)
	}
	return out
}

// AppendBinary implements wire.Msg. Invitations are the per-participant
// unit of session setup cost (Figure 2).
func (m *inviteMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SessionID)
	dst = wire.AppendString(dst, m.Task)
	dst = wire.AppendString(dst, m.Role)
	dst = appendAccess(dst, m.Access)
	dst = appendBindings(dst, m.Bindings)
	dst = wire.AppendStringSlice(dst, m.Inboxes)
	dst = appendParticipants(dst, m.Roster)
	dst = wire.AppendUvarint(dst, uint64(m.Size))
	dst = appendTreeSpec(dst, m.Tree)
	dst = wire.AppendUvarint(dst, uint64(m.Depth))
	return wire.AppendUvarint(dst, m.Epoch), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *inviteMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SessionID = r.String()
	m.Task = r.String()
	m.Role = r.String()
	m.Access = readAccess(r)
	m.Bindings = readBindings(r)
	m.Inboxes = r.StringSlice()
	m.Roster = readParticipants(r)
	m.Size = int(r.Uvarint())
	m.Tree = readTreeSpec(r)
	m.Depth = int(r.Uvarint())
	m.Epoch = r.Uvarint()
	return r.Done()
}

// inviteRepMsg is a participant's response to an invitation: an
// acceptance, or a refusal with the reason. Refusals are ordinary
// protocol outcomes the initiator aggregates per participant, so they
// ride in the reply body rather than as svc errors.
type inviteRepMsg struct {
	SessionID string
	Name      string
	Accepted  bool
	Reason    string
}

func (*inviteRepMsg) Kind() string { return "session.invite-rep" }

// AppendBinary implements wire.Msg.
func (m *inviteRepMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SessionID)
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendBool(dst, m.Accepted)
	return wire.AppendString(dst, m.Reason), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *inviteRepMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SessionID = r.String()
	m.Name = r.String()
	m.Accepted = r.Bool()
	m.Reason = r.String()
	return r.Done()
}

// terminateMsg ends a session: the participant unlinks its bindings and
// releases its state access. An initiator that gives up on a set-up
// casts it one-way to undo the accepts.
type terminateMsg struct {
	SessionID string
}

func (*terminateMsg) Kind() string { return "session.terminate" }

// AppendBinary implements wire.Msg.
func (m *terminateMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendString(dst, m.SessionID), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *terminateMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SessionID = r.String()
	return r.Done()
}

// terminateAckMsg confirms a participant has unlinked.
type terminateAckMsg struct {
	SessionID string
	Name      string
}

func (*terminateAckMsg) Kind() string { return "session.terminate-ack" }

// AppendBinary implements wire.Msg.
func (m *terminateAckMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SessionID)
	return wire.AppendString(dst, m.Name), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *terminateAckMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SessionID = r.String()
	m.Name = r.String()
	return r.Done()
}

// relinkMsg grows or shrinks a live session at a participant: Add
// bindings are applied, Remove bindings are deleted, and the roster is
// replaced. Roster, Size and Depth read as in inviteMsg: everyone on a
// flat session, the participant's own view on a tree session.
type relinkMsg struct {
	SessionID string
	Add       []Binding
	Remove    []Binding
	Roster    []Participant
	Size      int
	// Tree re-ships the session's tree spec on tree-bound sessions so a
	// reconfiguration rebinds the participant to its new neighbours.
	Tree  *TreeSpec
	Depth int
	// Epoch is the tree version this relink installs; participants
	// ignore relinks older than the tree they already hold.
	Epoch uint64
	// Redrive asks the participant to re-flood its replay ring after
	// rebinding — set on repair relinks so frames a failed relay
	// swallowed reach the re-parented subtree.
	Redrive bool
}

func (*relinkMsg) Kind() string { return "session.relink" }

// AppendBinary implements wire.Msg.
func (m *relinkMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SessionID)
	dst = appendBindings(dst, m.Add)
	dst = appendBindings(dst, m.Remove)
	dst = appendParticipants(dst, m.Roster)
	dst = wire.AppendUvarint(dst, uint64(m.Size))
	dst = appendTreeSpec(dst, m.Tree)
	dst = wire.AppendUvarint(dst, uint64(m.Depth))
	dst = wire.AppendUvarint(dst, m.Epoch)
	return wire.AppendBool(dst, m.Redrive), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *relinkMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SessionID = r.String()
	m.Add = readBindings(r)
	m.Remove = readBindings(r)
	m.Roster = readParticipants(r)
	m.Size = int(r.Uvarint())
	m.Tree = readTreeSpec(r)
	m.Depth = int(r.Uvarint())
	m.Epoch = r.Uvarint()
	m.Redrive = r.Bool()
	return r.Done()
}

// relinkAckMsg confirms a membership change was applied.
type relinkAckMsg struct {
	SessionID string
	Name      string
}

func (*relinkAckMsg) Kind() string { return "session.relink-ack" }

// AppendBinary implements wire.Msg.
func (m *relinkAckMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.SessionID)
	return wire.AppendString(dst, m.Name), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *relinkAckMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.SessionID = r.String()
	m.Name = r.String()
	return r.Done()
}

func init() {
	wire.Register(&inviteMsg{})
	wire.Register(&inviteRepMsg{})
	wire.Register(&terminateMsg{})
	wire.Register(&terminateAckMsg{})
	wire.Register(&relinkMsg{})
	wire.Register(&relinkAckMsg{})
}
