package session

import (
	"errors"
	"maps"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/state"
	"repro/internal/svc"
	"repro/internal/wire"
)

// Invitation is the application-visible view of an incoming session
// request, handed to the ACL policy callback.
type Invitation struct {
	SessionID string
	Task      string
	Role      string
	Access    state.AccessSet
	// Roster and Size are what the invite says of the membership; they
	// read as on Membership. An ACL on a tree session therefore judges
	// the inviter, the task, its own role and access, its would-be tree
	// neighbours and the group size — not the names of everyone else.
	Roster []Participant
	Size   int
}

// Membership is a dapplet's live participation in one session.
type Membership struct {
	ID   string
	Task string
	Role string
	// Roster is what the initiator told this participant of the
	// membership. On a flat session it is every participant. On a tree
	// session it is this participant's view: itself first, then its
	// tree parent (none at the root), then its tree children — the
	// peers it relays to and from, and all it needs however large the
	// group (only the initiator holds the whole roster:
	// Handle.Participants). A relink replaces Roster and Size; use Peer
	// or Peers to read them while the session may be reconfigured.
	Roster []Participant
	// Size is the number of participants in the whole session.
	Size int

	mu       sync.Mutex
	access   state.AccessSet
	inboxes  []string
	bindings []Binding
	down     map[string]bool // peers a failure detector declared dead
	tree     *TreeSpec       // non-nil on tree-multicast sessions
	depth    int             // the tree's root-to-leaf hop count
	epoch    uint64          // installed tree version
}

// Tree returns the session's tree spec (nil on flat sessions) and the
// installed tree epoch.
func (m *Membership) Tree() (*TreeSpec, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tree, m.epoch
}

// Peer finds a roster entry by role, returning the first match.
func (m *Membership) Peer(role string) (Participant, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.Roster {
		if p.Role == role {
			return p, true
		}
	}
	return Participant{}, false
}

// Peers returns all roster entries with the given role.
func (m *Membership) Peers(role string) []Participant {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Participant
	for _, p := range m.Roster {
		if p.Role == role {
			out = append(out, p)
		}
	}
	return out
}

// PeerDown reports whether a failure detector has declared the named
// roster member dead (see Service.MarkPeerDown).
func (m *Membership) PeerDown(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down[name]
}

// Policy configures how a dapplet responds to session requests.
type Policy struct {
	// ACL, when non-nil, decides whether an inviter may link this dapplet
	// into a session; returning false rejects the invitation ("because
	// the requesting dapplet was not on its access control list", §3.1).
	// It runs in the "@session" inbox's svc handler, on the goroutine
	// delivering the invitation — the dapplet's receive goroutine — so
	// it must never wait: not on a send, a reply or an inbox.
	ACL func(from netsim.Addr, inv Invitation) bool
}

// Service is the per-dapplet session participant: it listens on the
// dapplet's "@session" inbox and manages invitations, channel bindings,
// interference control and unlinking.
type Service struct {
	d      *core.Dapplet
	policy Policy

	mu      sync.Mutex
	members map[string]*Membership

	relayOnce sync.Once
	relay     *relay.Relay

	// rep and ack answer every invite and terminate: svc dispatches one
	// request at a time and encodes a returned reply before the next. A
	// relink's ack can be sent later, from a thread, and is its own.
	rep inviteRepMsg
	ack terminateAckMsg
}

// Relay returns the dapplet's tree-multicast engine, attaching it on
// first use (tree-free dapplets never spawn the "@relay" consumer).
func (s *Service) Relay() *relay.Relay {
	s.relayOnce.Do(func() { s.relay = relay.Attach(s.d) })
	return s.relay
}

// bindTree installs (or refreshes) this dapplet's place in a session's
// relay tree — view is the tree-session roster it was shipped: itself,
// then its neighbours — and routes the tree outbox's Send through it.
func (s *Service) bindTree(sid string, t *TreeSpec, view []Participant, depth int, epoch uint64, fromStart bool) {
	var neighbors []relay.Member
	if len(view) > 1 {
		neighbors = make([]relay.Member, len(view)-1)
		for i, p := range view[1:] {
			neighbors[i] = relay.Member{Name: p.Name, Addr: p.Addr}
		}
	}
	r := s.Relay()
	s.d.Inbox(t.Inbox)
	r.Bind(sid, relay.Binding{
		Neighbors: neighbors,
		Depth:     depth,
		Self:      s.d.Name(),
		Inbox:     t.Inbox,
		Epoch:     epoch,
		FromStart: fromStart,
	})
	ob := s.d.Outbox(t.Outbox)
	ob.SetSession(sid)
	ob.SetMulticast(r)
}

// unbindTree detaches a session's tree: the outbox falls back to flat
// sends and the relay forgets the session.
func (s *Service) unbindTree(sid string, t *TreeSpec) {
	if t == nil {
		return
	}
	s.d.Outbox(t.Outbox).SetMulticast(nil)
	s.Relay().Unbind(sid)
}

// Attach equips a dapplet with the session service: the "@session" inbox
// becomes an svc-served inbox whose handlers run the invite/relink/
// terminate protocol. An initiator that gives up casts the terminate
// one-way; everything else is correlated and acknowledged through the
// framework.
func Attach(d *core.Dapplet, policy Policy) *Service {
	s := &Service{
		d:       d,
		policy:  policy,
		members: make(map[string]*Membership),
	}
	svc.Serve(d, ControlInbox, svc.Handlers{
		"session.invite": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			inv := req.(*inviteMsg)
			reason, ok := s.onInvite(c.From(), inv)
			s.rep = inviteRepMsg{SessionID: inv.SessionID, Name: d.Name(), Accepted: ok, Reason: reason}
			return &s.rep, nil
		},
		"session.terminate": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			sid := req.(*terminateMsg).SessionID
			s.onTerminate(sid)
			s.ack = terminateAckMsg{SessionID: sid, Name: d.Name()}
			return &s.ack, nil
		},
		"session.relink": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return s.onRelink(req.(*relinkMsg)), nil
		},
	})
	return s
}

// Sessions returns the ids of sessions this dapplet is linked into.
func (s *Service) Sessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.members))
}

// Membership returns the live membership for a session id.
func (s *Service) Membership(id string) (*Membership, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[id]
	return m, ok
}

// onInvite judges an invitation and reports whether it accepts it, or
// why not. An accepting dapplet links itself up before it replies
// (§3.1): it creates the session's inboxes, binds its outboxes and tree,
// and records the membership.
func (s *Service) onInvite(from netsim.Addr, inv *inviteMsg) (reason string, ok bool) {
	s.mu.Lock()
	_, member := s.members[inv.SessionID]
	s.mu.Unlock()
	if member {
		// Idempotent re-accept: the initiator may retry.
		return "", true
	}

	if s.policy.ACL != nil {
		ok := s.policy.ACL(from, Invitation{
			SessionID: inv.SessionID,
			Task:      inv.Task,
			Role:      inv.Role,
			Access:    inv.Access,
			Roster:    inv.Roster,
			Size:      inv.Size,
		})
		if !ok {
			return "access denied: requester not on access control list", false
		}
	}

	// Interference control (§2.2): reject if a live session modifies
	// variables this one accesses or vice versa.
	if err := s.d.Store().TryAcquire(inv.SessionID, inv.Access); err != nil {
		reason := err.Error()
		if errors.Is(err, state.ErrConflict) {
			reason = "interference: " + reason
		}
		return reason, false
	}

	// Epoch 1 is Initiate's: this participant is in from the start. A
	// later epoch is a Grow into a running session.
	s.persist(s.link(inv, inv.Epoch == 1))
	return "", true
}

// link is the accept path: it links this dapplet into the session inv
// describes — its inboxes, its outbox bindings and, on a tree session,
// its place in the relay tree (fromStart as relay.Binding reads it) —
// and records the membership. onInvite runs it for an
// invitation, RestoreSessions for a durable record, which is the
// membership written as an invitation.
func (s *Service) link(inv *inviteMsg, fromStart bool) *Membership {
	for _, name := range inv.Inboxes {
		s.d.Inbox(name)
	}
	for _, b := range inv.Bindings {
		ob := s.d.Outbox(b.Outbox)
		ob.SetSession(inv.SessionID)
		ob.Add(b.To)
	}
	if inv.Tree != nil {
		s.bindTree(inv.SessionID, inv.Tree, inv.Roster, inv.Depth, inv.Epoch, fromStart)
	}
	mem := &Membership{
		ID:       inv.SessionID,
		Task:     inv.Task,
		Role:     inv.Role,
		Roster:   inv.Roster,
		Size:     inv.Size,
		access:   inv.Access,
		inboxes:  slices.Clone(inv.Inboxes),
		bindings: slices.Clone(inv.Bindings),
		tree:     inv.Tree,
		depth:    inv.Depth,
		epoch:    inv.Epoch,
	}
	s.mu.Lock()
	s.members[inv.SessionID] = mem
	s.mu.Unlock()
	return mem
}

// unlink drops a membership's outbox bindings and tree attachment.
func (s *Service) unlink(mem *Membership) {
	mem.mu.Lock()
	for _, b := range mem.bindings {
		ob := s.d.Outbox(b.Outbox)
		_ = ob.Delete(b.To)
		ob.SetSession("")
	}
	mem.bindings = nil
	tree := mem.tree
	mem.tree = nil
	mem.mu.Unlock()
	s.unbindTree(mem.ID, tree)
}

// onTerminate unlinks this dapplet from a session, unpersists it and
// releases its state access. It ends a session and also undoes an
// accepted invite when the initiator gave up on the set-up (a
// rejection elsewhere, a timeout or a cancelled context); it is
// idempotent, and a no-op apart from the ack for a session this
// dapplet never linked into.
func (s *Service) onTerminate(sid string) {
	s.mu.Lock()
	mem, ok := s.members[sid]
	delete(s.members, sid)
	s.mu.Unlock()
	if ok {
		s.unlink(mem)
	}
	s.d.Store().Release(sid)
	s.unpersist(sid)
}

// onRelink applies a relink to this dapplet's membership, re-floods the
// session's replay ring when asked (Relay.Redrive, which never waits),
// and returns the ack.
func (s *Service) onRelink(m *relinkMsg) *relinkAckMsg {
	ack := &relinkAckMsg{SessionID: m.SessionID, Name: s.d.Name()}
	s.mu.Lock()
	mem, ok := s.members[m.SessionID]
	s.mu.Unlock()
	if !ok {
		// Not a member: ack anyway so the initiator is not stuck.
		return ack
	}
	mem.mu.Lock()
	for _, b := range m.Remove {
		_ = s.d.Outbox(b.Outbox).Delete(b.To)
		for i, have := range mem.bindings {
			if have == b {
				mem.bindings = append(mem.bindings[:i], mem.bindings[i+1:]...)
				break
			}
		}
	}
	for _, b := range m.Add {
		ob := s.d.Outbox(b.Outbox)
		ob.SetSession(m.SessionID)
		ob.Add(b.To)
		// Idempotent like Outbox.Add: a retried repair (Reincarnate)
		// re-ships bindings a survivor may already hold.
		dup := false
		for _, have := range mem.bindings {
			if have == b {
				dup = true
				break
			}
		}
		if !dup {
			mem.bindings = append(mem.bindings, b)
		}
	}
	// The roster moves with the epoch: on a tree session it is the view
	// the relay is bound from (and RestoreSessions rebinds from), so a
	// reordered, older relink must not replace it. Flat sessions stay at
	// epoch 0 and always take the new roster.
	var rebind *TreeSpec
	if m.Roster != nil && m.Epoch >= mem.epoch {
		mem.Roster, mem.Size = m.Roster, m.Size
		if m.Tree != nil {
			mem.tree, mem.depth, mem.epoch = m.Tree, m.Depth, m.Epoch
			rebind = m.Tree
		}
	}
	mem.mu.Unlock()
	if rebind != nil {
		s.bindTree(m.SessionID, rebind, m.Roster, m.Depth, m.Epoch, false)
	}
	s.persist(mem)
	if rebind != nil && m.Redrive {
		// Re-flood the replay ring so frames a failed relay swallowed
		// reach the re-parented subtree; per-origin sequence dedup makes
		// this idempotent everywhere else.
		_ = s.Relay().Redrive(m.SessionID)
	}
	return ack
}
