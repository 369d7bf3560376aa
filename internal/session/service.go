package session

import (
	"errors"
	"fmt"
	"sort"
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

// Policy configures how a dapplet responds to session requests. Its
// callbacks run in the "@session" inbox's svc handlers, on the goroutine
// delivering the request — the dapplet's receive goroutine — so they
// must never wait: not on a send, a reply or an inbox. One that must
// hands its work to a thread (core.Dapplet.Spawn).
type Policy struct {
	// ACL, when non-nil, decides whether an inviter may link this dapplet
	// into a session; returning false rejects the invitation ("because
	// the requesting dapplet was not on its access control list", §3.1).
	ACL func(from netsim.Addr, inv Invitation) bool
	// OnJoin, when non-nil, runs once the dapplet has accepted an
	// invitation and linked itself up — before the rest of the group has
	// answered, so an initiator that then gives up follows it with
	// OnLeave.
	OnJoin func(m *Membership)
	// OnLeave, when non-nil, runs after the dapplet unlinks from a
	// session (terminate or shrink).
	OnLeave func(sessionID string)
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
			return s.onInvite(c.From(), req.(*inviteMsg)), nil
		},
		"session.terminate": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return s.onTerminate(req.(*terminateMsg)), nil
		},
		"session.relink": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			m := req.(*relinkMsg)
			ack, redrive := s.onRelink(m)
			if !redrive {
				return ack, nil
			}
			// The re-flood waits for each neighbour's window, which
			// this goroutine's acknowledgements open: it runs on a
			// thread, and the ack follows it.
			reply := c.Defer()
			d.Spawn(func() {
				_ = s.Relay().Redrive(m.SessionID)
				reply.Send(ack, nil)
			})
			return nil, nil
		},
	})
	return s
}

// Sessions returns the ids of sessions this dapplet is linked into.
func (s *Service) Sessions() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.members))
	for id := range s.members {
		out = append(out, id)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Membership returns the live membership for a session id.
func (s *Service) Membership(id string) (*Membership, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[id]
	return m, ok
}

// onInvite answers an invitation. An accepting dapplet links itself up
// before it replies (§3.1): it creates the session's inboxes, binds its
// outboxes and tree, and records the membership.
func (s *Service) onInvite(from netsim.Addr, inv *inviteMsg) *inviteRepMsg {
	accept := &inviteRepMsg{SessionID: inv.SessionID, Name: s.d.Name(), Accepted: true}
	s.mu.Lock()
	_, member := s.members[inv.SessionID]
	s.mu.Unlock()
	if member {
		// Idempotent re-accept: the initiator may retry.
		return accept
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
			return &inviteRepMsg{
				SessionID: inv.SessionID, Name: s.d.Name(),
				Reason: "access denied: requester not on access control list",
			}
		}
	}

	// Interference control (§2.2): reject if a live session modifies
	// variables this one accesses or vice versa.
	if err := s.d.Store().TryAcquire(inv.SessionID, inv.Access); err != nil {
		reason := "interference with a concurrent session"
		if !errors.Is(err, state.ErrConflict) {
			reason = err.Error()
		} else {
			reason = fmt.Sprintf("interference: %v", err)
		}
		return &inviteRepMsg{SessionID: inv.SessionID, Name: s.d.Name(), Reason: reason}
	}

	for _, name := range inv.Inboxes {
		s.d.Inbox(name)
	}
	for _, b := range inv.Bindings {
		ob := s.d.Outbox(b.Outbox)
		ob.SetSession(inv.SessionID)
		ob.Add(b.To)
	}
	if inv.Tree != nil {
		// Epoch 1 is Initiate's: this participant is in from the start.
		// A later epoch is a Grow into a running session.
		s.bindTree(inv.SessionID, inv.Tree, inv.Roster, inv.Depth, inv.Epoch, inv.Epoch == 1)
	}
	mem := &Membership{
		ID:       inv.SessionID,
		Task:     inv.Task,
		Role:     inv.Role,
		Roster:   inv.Roster,
		Size:     inv.Size,
		access:   inv.Access,
		inboxes:  append([]string(nil), inv.Inboxes...),
		bindings: append([]Binding(nil), inv.Bindings...),
		tree:     inv.Tree,
		depth:    inv.Depth,
		epoch:    inv.Epoch,
	}
	s.mu.Lock()
	s.members[inv.SessionID] = mem
	s.mu.Unlock()
	s.persist(mem)
	if s.policy.OnJoin != nil {
		s.policy.OnJoin(mem)
	}
	return accept
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
func (s *Service) onTerminate(m *terminateMsg) *terminateAckMsg {
	s.mu.Lock()
	mem, ok := s.members[m.SessionID]
	delete(s.members, m.SessionID)
	s.mu.Unlock()
	if ok {
		s.unlink(mem)
	}
	s.d.Store().Release(m.SessionID)
	s.unpersist(m.SessionID)
	if ok && s.policy.OnLeave != nil {
		s.policy.OnLeave(m.SessionID)
	}
	return &terminateAckMsg{SessionID: m.SessionID, Name: s.d.Name()}
}

// onRelink applies a relink to this dapplet's membership and returns the
// ack, and whether the session's replay ring is to be re-flooded before
// the ack is sent (see Relay.Redrive).
func (s *Service) onRelink(m *relinkMsg) (ack *relinkAckMsg, redrive bool) {
	ack = &relinkAckMsg{SessionID: m.SessionID, Name: s.d.Name()}
	s.mu.Lock()
	mem, ok := s.members[m.SessionID]
	s.mu.Unlock()
	if !ok {
		// Not a member: ack anyway so the initiator is not stuck.
		return ack, false
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
		// Re-flood the replay ring so frames a failed relay swallowed
		// reach the re-parented subtree; per-origin sequence dedup makes
		// this idempotent everywhere else.
		redrive = m.Redrive
	}
	s.persist(mem)
	return ack, redrive
}
