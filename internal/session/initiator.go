package session

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/svc"
	"repro/internal/wire"
)

// DefaultTimeout bounds a whole handshake (initiate, grow, shrink,
// terminate, reincarnate) when the caller's context carries no deadline
// of its own.
const DefaultTimeout = 10 * time.Second

// Rejection records one participant's refusal to join.
type Rejection struct {
	Name   string
	Reason string
}

// RejectedError reports that a session could not be established because
// one or more participants refused; the paper postpones what the initiator
// does next, so we surface the rejections to the caller.
type RejectedError struct {
	SessionID  string
	Rejections []Rejection
}

// Error implements the error interface.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("session %s rejected by %d participant(s): %v", e.SessionID, len(e.Rejections), e.Rejections)
}

var sessionSeq atomic.Uint64

// Initiator links dapplets into sessions using an address directory
// (§3.1, Fig. 2). It is itself hosted on a dapplet (the initiator
// dapplet), whose address participants see on control messages. The
// directory may be the process-local map or the replicated service's
// caching client — any directory.Resolver. All control traffic travels
// on the svc framework: one caller multiplexes every handshake, and
// every blocking method takes a context.Context.
type Initiator struct {
	d      *core.Dapplet
	dir    directory.Resolver
	caller *svc.Caller
}

// NewInitiator creates an initiator on the given dapplet with the given
// address directory (a *directory.Directory or a *directory.Client).
func NewInitiator(d *core.Dapplet, dir directory.Resolver) *Initiator {
	return &Initiator{d: d, dir: dir, caller: svc.NewCaller(d)}
}

// withDeadline applies DefaultTimeout to a context that has no deadline
// of its own.
func withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, DefaultTimeout)
}

// resolved is a link with the destination inbox resolved to an address.
type resolved struct {
	fromName string
	binding  Binding
	toName   string
}

// resolveSpec fills participant addresses from the directory and converts
// links into per-participant bindings.
func (ini *Initiator) resolveSpec(ctx context.Context, spec *Spec) (map[string]*Participant, []resolved, error) {
	parts := make(map[string]*Participant, len(spec.Participants))
	for i := range spec.Participants {
		p := &spec.Participants[i]
		if p.Addr.IsZero() {
			e, err := ini.dir.MustLookup(ctx, p.Name)
			if err != nil {
				return nil, nil, err
			}
			p.Addr = e.Addr
		}
		if _, dup := parts[p.Name]; dup {
			return nil, nil, fmt.Errorf("session: duplicate participant %q", p.Name)
		}
		parts[p.Name] = p
	}
	links := make([]resolved, 0, len(spec.Links))
	for _, l := range spec.Links {
		if _, ok := parts[l.From]; !ok {
			return nil, nil, fmt.Errorf("session: link from unknown participant %q", l.From)
		}
		to, ok := parts[l.To]
		if !ok {
			return nil, nil, fmt.Errorf("session: link to unknown participant %q", l.To)
		}
		links = append(links, resolved{
			fromName: l.From,
			toName:   l.To,
			binding: Binding{
				Outbox: l.Outbox,
				To:     wire.InboxRef{Dapplet: to.Addr, Inbox: l.Inbox},
			},
		})
	}
	return parts, links, nil
}

// callAll issues one svc request per participant and awaits every
// reply; the requests are all transmitted before any await begins,
// preserving per-destination FIFO ordering and overlapping the round
// trips. A Pending buffers its reply, so the awaits run in turn on the
// calling goroutine. mk builds each participant's request and may hand
// back the same scratch every time, since Caller.Send encodes a request
// before it returns. Every reply is decoded into rep, one scratch for the
// whole round, and seen, when non-nil, reads it before the next reply
// overwrites it; a caller keeps what it needs of a reply (the initiator
// keeps rejections), not the reply. It returns the first failure by
// index — a cancelled or expired context surfaces as ctx.Err().
func callAll(ctx context.Context, caller *svc.Caller, sid string, ps []Participant, mk func(Participant) wire.Msg, rep wire.Msg, seen func()) error {
	errs := make([]error, len(ps))
	pends := make([]*svc.Pending, len(ps))
	for i, p := range ps {
		pend, err := caller.Send(controlRef(p), sid, mk(p))
		if err != nil {
			errs[i] = fmt.Errorf("session: %s: %w", p.Name, err)
			continue
		}
		pends[i] = pend
	}
	// Every Pending is awaited even after a failure: Await is what
	// unregisters it from the caller.
	for i, pend := range pends {
		if pend == nil {
			continue
		}
		if err := pend.Await(ctx, rep); err != nil {
			errs[i] = err
			continue
		}
		if seen != nil {
			seen()
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// treeMembers projects a roster into relay members, preserving order —
// the roster order is the tree order.
func treeMembers(roster []Participant) []relay.Member {
	out := make([]relay.Member, len(roster))
	for i, p := range roster {
		out[i] = relay.Member{Name: p.Name, Addr: p.Addr}
	}
	return out
}

// shipment is what the initiator tells the participants about one
// session's membership at one epoch. The initiator owns the address
// directory and tells each participant only what that participant must
// bind (§3.1, Fig. 2). On a flat session that is the whole roster,
// because behaviours find their peers in it by role. On a tree session
// it is the participant's view — itself, its tree parent and its
// children, read off the one relay.Tree laid over the roster order —
// plus the group size and the tree depth: ≤ k+2 entries however large
// the group, so setting up N participants ships O(N·k) bytes, not O(N²).
// Every inviteMsg and relinkMsg is built here, into the shipment's own
// scratch: the message a call returns, and the view it carries, are
// valid until the next call, which is long enough for Caller.Send to
// encode it. A shipment is used by one goroutine.
type shipment struct {
	sid    string
	roster []Participant // tree order on a tree session
	spec   *TreeSpec     // nil on a flat session
	epoch  uint64
	tree   *relay.Tree // the layout over roster; nil on a flat session
	depth  int

	hood []int         // rosterFor's neighbourhood indexes
	view []Participant // rosterFor's view
	inv  inviteMsg
	rl   relinkMsg
}

func newShipment(sid string, roster []Participant, spec *TreeSpec, epoch uint64) *shipment {
	s := &shipment{sid: sid, roster: roster, spec: spec, epoch: epoch}
	if spec != nil {
		s.tree = relay.NewTree(treeMembers(roster), spec.Fanout)
		s.depth = s.tree.Depth()
		s.hood = make([]int, 0, s.tree.Fanout()+2)
		s.view = make([]Participant, 0, s.tree.Fanout()+2)
	}
	return s
}

// rosterFor returns what the named participant is told of the
// membership: everyone, or on a tree session its view, which the next
// call overwrites.
func (s *shipment) rosterFor(name string) []Participant {
	if s.tree == nil {
		return s.roster
	}
	s.hood = s.tree.AppendNeighborhood(s.hood[:0], name)
	s.view = s.view[:0]
	for _, i := range s.hood {
		s.view = append(s.view, s.roster[i])
	}
	return s.view
}

func (s *shipment) invite(task string, p Participant, bindings []Binding, inboxes []string) *inviteMsg {
	s.inv = inviteMsg{
		SessionID: s.sid,
		Task:      task,
		Role:      p.Role,
		Access:    p.Access,
		Bindings:  bindings,
		Inboxes:   inboxes,
		Roster:    s.rosterFor(p.Name),
		Size:      len(s.roster),
		Tree:      s.spec,
		Depth:     s.depth,
		Epoch:     s.epoch,
	}
	return &s.inv
}

func (s *shipment) relink(name string, add, remove []Binding, redrive bool) *relinkMsg {
	s.rl = relinkMsg{
		SessionID: s.sid,
		Add:       add,
		Remove:    remove,
		Roster:    s.rosterFor(name),
		Size:      len(s.roster),
		Tree:      s.spec,
		Depth:     s.depth,
		Epoch:     s.epoch,
		Redrive:   redrive,
	}
	return &s.rl
}

// Initiate sets up the session described by spec in one round: it
// invites every participant, and each one that accepts links itself up
// before it answers. On any rejection — or any failure, including ctx
// ending mid-handshake — a terminate is cast to every participant,
// unlinking those that had accepted. The context bounds the whole
// handshake (DefaultTimeout applies when it has no deadline). On success
// it returns a Handle for growing, shrinking and terminating the session.
func (ini *Initiator) Initiate(ctx context.Context, spec Spec) (*Handle, error) {
	ctx, cancel := withDeadline(ctx)
	defer cancel()
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("sess-%s-%d", ini.d.Name(), sessionSeq.Add(1))
	}
	if spec.Tree != nil && (spec.Tree.Outbox == "" || spec.Tree.Inbox == "") {
		return nil, errors.New("session: tree spec needs both an outbox and an inbox name")
	}
	parts, links, err := ini.resolveSpec(ctx, &spec)
	if err != nil {
		return nil, err
	}

	// A tree session's first epoch is 1; the order of spec.Participants
	// is its tree order.
	var epoch uint64
	if spec.Tree != nil {
		epoch = 1
	}
	ship := newShipment(spec.ID, spec.Participants, spec.Tree, epoch)

	// Group bindings and required inboxes per participant.
	bindingsOf := make(map[string][]Binding)
	inboxesOf := make(map[string][]string)
	for _, l := range links {
		bindingsOf[l.fromName] = append(bindingsOf[l.fromName], l.binding)
		inboxesOf[l.toName] = append(inboxesOf[l.toName], l.binding.To.Inbox)
	}

	var (
		rep        inviteRepMsg
		rejections []Rejection
	)
	err = callAll(ctx, ini.caller, spec.ID, spec.Participants, func(p Participant) wire.Msg {
		return ship.invite(spec.Task, p, bindingsOf[p.Name], inboxesOf[p.Name])
	}, &rep, func() {
		if !rep.Accepted {
			rejections = append(rejections, Rejection{Name: rep.Name, Reason: rep.Reason})
		}
	})
	if err != nil {
		ini.abort(parts, spec.ID)
		return nil, err
	}
	if len(rejections) > 0 {
		ini.abort(parts, spec.ID)
		return nil, &RejectedError{SessionID: spec.ID, Rejections: rejections}
	}

	h := &Handle{
		ini:          ini,
		id:           spec.ID,
		task:         spec.Task,
		participants: parts,
		links:        links,
		tree:         spec.Tree,
		epoch:        epoch,
	}
	return h, nil
}

// abort gives a session up at every participant: a one-way terminate
// unlinks those that accepted and is a no-op at the rest. It follows the
// invite on the same FIFO channel, so it cannot overtake it.
func (ini *Initiator) abort(parts map[string]*Participant, sid string) {
	term := &terminateMsg{SessionID: sid}
	for _, p := range parts {
		_ = ini.caller.Cast(controlRef(*p), sid, term)
	}
}

func controlRef(p Participant) wire.InboxRef {
	return wire.InboxRef{Dapplet: p.Addr, Inbox: ControlInbox}
}

// Handle is the initiator's live view of an established session.
type Handle struct {
	ini  *Initiator
	id   string
	task string

	mu           sync.Mutex
	participants map[string]*Participant
	links        []resolved
	terminated   bool
	tree         *TreeSpec
	epoch        uint64 // current tree version; bumped per reconfiguration
}

// ID returns the session id.
func (h *Handle) ID() string { return h.id }

// Tree returns the session's tree spec (nil on flat sessions) and the
// current tree epoch.
func (h *Handle) Tree() (*TreeSpec, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tree, h.epoch
}

// bumpEpochLocked advances the tree version for a reconfiguration,
// returning the new epoch (0 on flat sessions). Callers hold h.mu.
func (h *Handle) bumpEpochLocked() uint64 {
	if h.tree == nil {
		return 0
	}
	h.epoch++
	return h.epoch
}

// Participants returns the current roster, sorted by name.
func (h *Handle) Participants() []Participant {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rosterLocked()
}

func (h *Handle) rosterLocked() []Participant {
	out := make([]Participant, 0, len(h.participants))
	for _, p := range h.participants {
		out = append(out, *p)
	}
	sortParticipants(out)
	return out
}

func sortParticipants(ps []Participant) {
	slices.SortFunc(ps, func(a, b Participant) int { return strings.Compare(a.Name, b.Name) })
}

// Terminate ends the session: every participant unlinks its bindings and
// releases its state access, and the initiator awaits every
// acknowledgement within ctx. The handle refuses Grow and the other
// reconfigurations while it runs. A failed or cancelled Terminate
// leaves the handle live, so a retry sends every terminate again
// (participants that already unlinked just ack); once one succeeds,
// later calls return nil at once.
func (h *Handle) Terminate(ctx context.Context) error {
	h.mu.Lock()
	if h.terminated {
		h.mu.Unlock()
		return nil
	}
	h.terminated = true
	roster := h.rosterLocked()
	h.mu.Unlock()

	ctx, cancel := withDeadline(ctx)
	defer cancel()
	term := &terminateMsg{SessionID: h.id}
	err := callAll(ctx, h.ini.caller, h.id, roster, func(Participant) wire.Msg {
		return term
	}, &terminateAckMsg{}, nil)
	if err != nil {
		h.mu.Lock()
		h.terminated = false
		h.mu.Unlock()
	}
	return err
}

// Grow adds a participant to the live session with the given new links
// (which may mention existing participants on either side). The new
// participant gets the same invite as at Initiate and links itself up
// when it accepts; existing participants are then relinked. (§1:
// sessions "may grow and shrink as required".) The context bounds the
// whole exchange.
func (h *Handle) Grow(ctx context.Context, p Participant, newLinks []Link) error {
	h.mu.Lock()
	if h.terminated {
		h.mu.Unlock()
		return errors.New("session: terminated")
	}
	if _, dup := h.participants[p.Name]; dup {
		h.mu.Unlock()
		return fmt.Errorf("session: participant %q already present", p.Name)
	}
	h.mu.Unlock()

	ctx, cancel := withDeadline(ctx)
	defer cancel()

	if p.Addr.IsZero() {
		e, err := h.ini.dir.MustLookup(ctx, p.Name)
		if err != nil {
			return err
		}
		p.Addr = e.Addr
	}

	h.mu.Lock()
	known := func(name string) (*Participant, bool) {
		if name == p.Name {
			return &p, true
		}
		q, ok := h.participants[name]
		return q, ok
	}
	var resolvedNew []resolved
	for _, l := range newLinks {
		if _, ok := known(l.From); !ok {
			h.mu.Unlock()
			return fmt.Errorf("session: link from unknown participant %q", l.From)
		}
		to, ok := known(l.To)
		if !ok {
			h.mu.Unlock()
			return fmt.Errorf("session: link to unknown participant %q", l.To)
		}
		resolvedNew = append(resolvedNew, resolved{
			fromName: l.From,
			toName:   l.To,
			binding:  Binding{Outbox: l.Outbox, To: wire.InboxRef{Dapplet: to.Addr, Inbox: l.Inbox}},
		})
	}
	existing := h.rosterLocked()
	newRoster := append(slices.Clone(existing), p)
	sortParticipants(newRoster)
	ship := newShipment(h.id, newRoster, h.tree, h.bumpEpochLocked())
	h.mu.Unlock()

	// Bindings and inboxes for the newcomer.
	var pBindings []Binding
	var pInboxes []string
	addsFor := make(map[string][]Binding)
	for _, l := range resolvedNew {
		if l.fromName == p.Name {
			pBindings = append(pBindings, l.binding)
		} else {
			addsFor[l.fromName] = append(addsFor[l.fromName], l.binding)
		}
		if l.toName == p.Name {
			pInboxes = append(pInboxes, l.binding.To.Inbox)
		}
	}

	// Any failure once the invite is on the wire terminates the
	// newcomer: it may have accepted and linked itself up even if its
	// answer never arrived. Without the terminate a half-joined orphan
	// would hold its state access forever, outside every roster a
	// Terminate would reach. A failed Grow leaves the handle untouched,
	// so a retry re-runs the whole handshake (invites and relink adds
	// are idempotent).
	abortNewcomer := func() {
		_ = h.ini.caller.Cast(controlRef(p), h.id, &terminateMsg{SessionID: h.id})
	}

	var inviteRep inviteRepMsg
	err := h.ini.caller.CallTagged(ctx, controlRef(p), h.id, ship.invite(h.task, p, pBindings, pInboxes), &inviteRep)
	if err != nil {
		abortNewcomer()
		return err
	}
	if !inviteRep.Accepted {
		return &RejectedError{SessionID: h.id, Rejections: []Rejection{{Name: inviteRep.Name, Reason: inviteRep.Reason}}}
	}

	// Relink existing participants: new bindings plus the fresh roster
	// (on tree sessions each one's view of the tree re-laid at the new
	// epoch to include the newcomer).
	if err := callAll(ctx, h.ini.caller, h.id, existing, func(q Participant) wire.Msg {
		return ship.relink(q.Name, addsFor[q.Name], nil, false)
	}, &relinkAckMsg{}, nil); err != nil {
		abortNewcomer()
		return err
	}

	h.mu.Lock()
	h.participants[p.Name] = &p
	h.links = append(h.links, resolvedNew...)
	h.mu.Unlock()
	return nil
}

// Reincarnate repairs the session after a participant crashed and was
// restarted at a new address, resolving that address through the
// initiator's directory — the replicated directory re-registers a
// reincarnation at its new address (failure.BindDirectory), so the
// repair needs only the name. Use ReincarnateAt when the address is
// known out-of-band instead.
func (h *Handle) Reincarnate(ctx context.Context, name string) error {
	ctx, cancel := withDeadline(ctx)
	defer cancel()
	e, err := h.ini.dir.MustLookup(ctx, name)
	if err != nil {
		return fmt.Errorf("session: resolve reincarnated %q: %w", name, err)
	}
	return h.ReincarnateAt(ctx, name, e.Addr)
}

// ReincarnateAt repairs the session after a participant crashed and was
// restarted at the given address (core.Runtime.Restart rebinds a fresh
// port). Unlike Shrink+Grow it never talks to the dead incarnation: it
// updates the roster entry to newAddr, tells every surviving participant
// with a channel into the crashed one to swing that binding to the new
// address, and delivers the corrected roster to everyone — including the
// reincarnated participant, which is expected to have already restored
// its own outbox bindings and membership from its store
// (Service.RestoreSessions).
func (h *Handle) ReincarnateAt(ctx context.Context, name string, newAddr netsim.Addr) error {
	h.mu.Lock()
	if h.terminated {
		h.mu.Unlock()
		return errors.New("session: terminated")
	}
	p, ok := h.participants[name]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("session: no participant %q", name)
	}
	oldAddr := p.Addr
	if oldAddr == newAddr {
		h.mu.Unlock()
		return nil
	}
	// Swing every binding whose destination inbox lived on the crashed
	// incarnation: the owner must Remove the stale binding and Add the
	// replacement. That includes a self-link (the restored incarnation's
	// own binding to itself points at the dead address); bindings the
	// crashed participant holds toward surviving peers need no repair.
	// The handle's own view is committed only after every survivor has
	// acknowledged: a failed or timed-out call leaves it untouched, so a
	// retry recomputes the same stale bindings (survivors that already
	// applied them treat the repeat as a no-op).
	removesFor := make(map[string][]Binding)
	addsFor := make(map[string][]Binding)
	for _, l := range h.links {
		if l.toName != name {
			continue
		}
		stale, fresh := l.binding, l.binding
		stale.To.Dapplet = oldAddr
		fresh.To.Dapplet = newAddr
		removesFor[l.fromName] = append(removesFor[l.fromName], stale)
		addsFor[l.fromName] = append(addsFor[l.fromName], fresh)
	}
	roster := h.rosterLocked()
	for i := range roster {
		if roster[i].Name == name {
			roster[i].Addr = newAddr
		}
	}
	ship := newShipment(h.id, roster, h.tree, h.bumpEpochLocked())
	h.mu.Unlock()

	ctx, cancel := withDeadline(ctx)
	defer cancel()
	// On tree sessions the relink also rebinds the reincarnation's
	// neighbours to its new address, so frames the dead incarnation
	// swallowed can reach its subtree.
	if err := callAll(ctx, h.ini.caller, h.id, roster, func(q Participant) wire.Msg {
		return ship.relink(q.Name, addsFor[q.Name], removesFor[q.Name], false)
	}, &relinkAckMsg{}, nil); err != nil {
		return err
	}
	// Redrive replay rings only after every member has acknowledged the
	// rebind: a relay still on the old epoch would forward redriven
	// frames toward the dead incarnation's address and lose them.
	if ship.spec != nil {
		if err := h.redriveAll(ctx, ship); err != nil {
			return err
		}
	}

	h.mu.Lock()
	if q, live := h.participants[name]; live {
		q.Addr = newAddr
	}
	for i := range h.links {
		l := &h.links[i]
		if l.toName == name && l.binding.To.Dapplet == oldAddr {
			l.binding.To.Dapplet = newAddr
		}
	}
	h.mu.Unlock()
	return nil
}

// Shrink removes a participant: the victim unlinks everything and releases
// its state access, and every remaining participant with a channel to the
// victim's inboxes drops that binding. The context bounds the exchange.
// Like ReincarnateAt, the handle's own view is committed only after
// every remaining participant has acknowledged: a failed or cancelled
// Shrink leaves the roster untouched, so a retry re-drives the same
// removal (the victim's repeated terminate and the survivors' repeated
// binding removes are no-ops).
func (h *Handle) Shrink(ctx context.Context, name string) error {
	return h.evict(ctx, name, true)
}

// RepairTree evicts a dead participant from a tree session after a
// failure detector's Down verdict. Unlike Shrink it never contacts the
// victim: the tree is re-laid over the shrunk roster and every survivor
// is relinked with its view of it at a new epoch — which re-parents the
// orphaned subtree — and redrives its replay ring, so messages the
// dead relay swallowed reach the re-parented members (per-origin
// sequence dedup keeps the re-flood idempotent). Bindings toward the
// victim's inboxes are dropped like a Shrink. Detector wiring lives in
// failure.BindTreeRepair. If the participant later reincarnates, Grow
// re-admits it.
func (h *Handle) RepairTree(ctx context.Context, name string) error {
	return h.evict(ctx, name, false)
}

// evict drops name from the session: every survivor removes its
// bindings toward the victim's inboxes and is relinked with the shrunk
// roster at a new epoch, and the handle's own view is committed only once
// all have acknowledged. A live victim (Shrink) first terminates its part
// of the session; a dead one (RepairTree) is never contacted, must sit in
// a tree session, and the survivors redrive once they run the repaired
// tree.
func (h *Handle) evict(ctx context.Context, name string, live bool) error {
	h.mu.Lock()
	if h.terminated {
		h.mu.Unlock()
		return errors.New("session: terminated")
	}
	if !live && h.tree == nil {
		h.mu.Unlock()
		return fmt.Errorf("session: %s is not a tree session", h.id)
	}
	vp, ok := h.participants[name]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("session: no participant %q", name)
	}
	victim := *vp // copied under the lock; used after it is released
	removesFor := make(map[string][]Binding)
	for _, l := range h.links {
		if l.toName == name && l.fromName != name {
			removesFor[l.fromName] = append(removesFor[l.fromName], l.binding)
		}
	}
	roster := h.rosterLocked()
	newRoster := roster[:0:0]
	for _, q := range roster {
		if q.Name != name {
			newRoster = append(newRoster, q)
		}
	}
	ship := newShipment(h.id, newRoster, h.tree, h.bumpEpochLocked())
	h.mu.Unlock()

	ctx, cancel := withDeadline(ctx)
	defer cancel()
	if live {
		// The victim fully unlinks (terminate semantics for it alone).
		if err := h.ini.caller.CallTagged(ctx, controlRef(victim), h.id,
			&terminateMsg{SessionID: h.id}, &terminateAckMsg{}); err != nil {
			return err
		}
	}
	if err := callAll(ctx, h.ini.caller, h.id, newRoster, func(q Participant) wire.Msg {
		return ship.relink(q.Name, nil, removesFor[q.Name], false)
	}, &relinkAckMsg{}, nil); err != nil {
		return err
	}
	if !live {
		// Two-phase for the same reason as ReincarnateAt: redrive only
		// once every survivor runs the repaired tree, or frames chase the
		// dead relay.
		if err := h.redriveAll(ctx, ship); err != nil {
			return err
		}
	}

	h.mu.Lock()
	delete(h.participants, name)
	var kept []resolved
	for _, l := range h.links {
		if l.fromName != name && l.toName != name {
			kept = append(kept, l)
		}
	}
	h.links = kept
	h.mu.Unlock()
	return nil
}

// redriveAll asks every rostered member to redrive its relay replay ring
// on the current tree epoch. It is the second phase of a tree repair:
// the first relink round rebinds every member to its new neighbours, and
// this round re-floods the frames the failure may have stranded.
// Repeating the same shipment is deliberate — members rebind
// idempotently, then redrive.
func (h *Handle) redriveAll(ctx context.Context, ship *shipment) error {
	return callAll(ctx, h.ini.caller, h.id, ship.roster, func(q Participant) wire.Msg {
		return ship.relink(q.Name, nil, nil, true)
	}, &relinkAckMsg{}, nil)
}
