package relay

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/wire"
)

// InboxName is the control inbox every tree participant consumes relay
// frames on.
const InboxName = "@relay"

// DefaultReplay is the per-session replay ring capacity (own recent
// frames kept for post-repair redrive) when a binding does not specify
// one.
const DefaultReplay = 64

// Stats counts relay activity on one dapplet.
type Stats struct {
	// Delivered is the number of frames handed to a local inbox.
	Delivered uint64
	// Forwarded is the number of frame transmissions to tree neighbors
	// (excluding the origin's initial flood).
	Forwarded uint64
	// DupDropped counts frames whose sequence had already been
	// delivered; they are re-forwarded (TTL-bounded) but not re-queued.
	DupDropped uint64
	// TTLDrops counts frames whose hop budget reached zero.
	TTLDrops uint64
	// Unbound counts frames for sessions this dapplet has no binding
	// for.
	Unbound uint64
	// Redriven is the number of replay-buffer frames re-flooded by
	// Redrive calls.
	Redriven uint64
}

// Binding describes one session's tree as seen by one participant.
type Binding struct {
	// Members is the roster in tree order — identical at every
	// participant (the session layer distributes it).
	Members []Member
	// Self is this dapplet's roster name; defaults to the dapplet's
	// instance name.
	Self string
	// Fanout is the tree fanout k (default DefaultFanout).
	Fanout int
	// Inbox is the inbox name the multicast delivers to at every member.
	Inbox string
	// Epoch is the tree version; Bind ignores epochs older than the one
	// already installed, so reordered relinks cannot roll the tree back.
	Epoch uint64
	// Replay is the replay ring capacity (default DefaultReplay).
	Replay int
}

// originState is the per-(session, origin) delivery cursor: frames are
// handed to the inbox strictly in sequence order, with ahead-of-sequence
// arrivals parked in pending until the gap fills.
type originState struct {
	next    uint64 // 0 until the first frame fixes the baseline
	pending map[uint64]*wire.RelayFrame
}

// sessionState is one tree binding plus its mutable multicast state.
type sessionState struct {
	tree      *Tree
	self      string
	inbox     string
	epoch     uint64
	replayCap int

	seq     uint64             // own origin sequence, last used
	replay  []*wire.RelayFrame // ring of own recent frames, oldest first
	origins map[string]*originState
}

// Relay is the per-dapplet tree multicast engine. It consumes frames on
// InboxName, delivers payloads to the session's inbox in per-origin
// sequence order, and re-forwards the shared encoded bytes to its own
// tree neighbors. It implements core.Multicaster, so a tree-bound
// outbox's Send goes through Multicast.
type Relay struct {
	d *core.Dapplet

	mu       sync.Mutex
	sessions map[string]*sessionState

	delivered  atomic.Uint64
	forwarded  atomic.Uint64
	dupDropped atomic.Uint64
	ttlDrops   atomic.Uint64
	unbound    atomic.Uint64
	redriven   atomic.Uint64
}

// Attach creates the dapplet's relay engine and starts its frame
// consumer on InboxName. Attach once per dapplet; the session layer does
// this lazily on the first tree binding.
func Attach(d *core.Dapplet) *Relay {
	r := &Relay{d: d, sessions: make(map[string]*sessionState)}
	d.Handle(InboxName, r.onFrame)
	return r
}

// Stats returns a snapshot of the relay's counters.
func (r *Relay) Stats() Stats {
	return Stats{
		Delivered:  r.delivered.Load(),
		Forwarded:  r.forwarded.Load(),
		DupDropped: r.dupDropped.Load(),
		TTLDrops:   r.ttlDrops.Load(),
		Unbound:    r.unbound.Load(),
		Redriven:   r.redriven.Load(),
	}
}

// Bind installs (or replaces) a session's tree. Bindings carry the tree
// epoch from the session layer; a Bind older than the installed epoch is
// ignored, and a rebind at the same or newer epoch keeps the session's
// sequence counters and delivery cursors so reconfiguration never resets
// ordering state.
func (r *Relay) Bind(sid string, b Binding) error {
	self := b.Self
	if self == "" {
		self = r.d.Name()
	}
	t := NewTree(b.Members, b.Fanout)
	if !t.Contains(self) {
		return fmt.Errorf("relay: %q is not on session %q roster", self, sid)
	}
	cap := b.Replay
	if cap <= 0 {
		cap = DefaultReplay
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.sessions[sid]; ok {
		if b.Epoch < st.epoch {
			return nil // stale reconfiguration, already superseded
		}
		st.tree, st.self, st.inbox, st.epoch, st.replayCap = t, self, b.Inbox, b.Epoch, cap
		return nil
	}
	r.sessions[sid] = &sessionState{
		tree: t, self: self, inbox: b.Inbox, epoch: b.Epoch, replayCap: cap,
		origins: make(map[string]*originState),
	}
	return nil
}

// Unbind drops a session's tree state (session terminated or this
// participant left).
func (r *Relay) Unbind(sid string) {
	r.mu.Lock()
	delete(r.sessions, sid)
	r.mu.Unlock()
}

// Bound reports whether the session has a tree installed.
func (r *Relay) Bound(sid string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sessions[sid]
	return ok
}

// Epoch returns the installed tree epoch for a session (0 if unbound).
func (r *Relay) Epoch(sid string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.sessions[sid]; ok {
		return st.epoch
	}
	return 0
}

// Multicast implements core.Multicaster: encode the body once, record
// the frame in the replay ring, and flood it to this node's tree
// neighbors. The caller (Outbox.Send) already stamped the clock.
func (r *Relay) Multicast(outbox, session string, lamport uint64, msg wire.Msg) error {
	body, err := wire.EncodeBody(msg)
	if err != nil {
		return err
	}
	defer body.Release()

	r.mu.Lock()
	st, ok := r.sessions[session]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("relay: session %q is not tree-bound on %q", session, r.d.Name())
	}
	st.seq++
	frame := &wire.RelayFrame{
		SessionID:    session,
		Origin:       st.self,
		OriginAddr:   r.d.Addr(),
		OriginOutbox: outbox,
		Inbox:        st.inbox,
		Lamport:      lamport,
		Seq:          st.seq,
		Epoch:        st.epoch,
		TTL:          ttlFor(st.tree),
		BodyID:       body.ID(),
		Body:         body.Bytes(),
	}
	// The replay copy owns its bytes: body's buffer is pooled and
	// released when Multicast returns.
	kept := *frame
	kept.CopyBody()
	st.replay = append(st.replay, &kept)
	if len(st.replay) > st.replayCap {
		st.replay = st.replay[len(st.replay)-st.replayCap:]
	}
	neighbors := st.tree.Neighbors(st.self)
	r.mu.Unlock()

	return r.flood(session, frame, neighbors, "")
}

// flood encodes frame once and transmits the identical bytes to every
// neighbor except the one named skip (the hop the frame arrived from).
func (r *Relay) flood(session string, frame *wire.RelayFrame, neighbors []Member, skip string) error {
	if len(neighbors) == 0 {
		return nil
	}
	enc, err := wire.EncodeBody(frame)
	if err != nil {
		return err
	}
	defer enc.Release()
	var firstErr error
	for _, n := range neighbors {
		if n.Name == skip || n.Name == frame.Origin {
			continue
		}
		to := wire.InboxRef{Dapplet: n.Addr, Inbox: InboxName}
		if err := r.d.SendEncoded(to, session, frame, enc); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Redrive re-floods the session's replay ring to the current tree
// neighbors. The session layer calls it after a repair relink so frames
// the failed relay swallowed reach the re-parented subtree; per-origin
// sequence dedup makes the re-flood idempotent everywhere else.
func (r *Relay) Redrive(sid string) error {
	r.mu.Lock()
	st, ok := r.sessions[sid]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("relay: session %q is not tree-bound on %q", sid, r.d.Name())
	}
	frames := make([]*wire.RelayFrame, len(st.replay))
	ttl := ttlFor(st.tree)
	for i, f := range st.replay {
		cp := *f
		cp.TTL = ttl // refresh the hop budget for the new tree shape
		frames[i] = &cp
	}
	neighbors := st.tree.Neighbors(st.self)
	r.mu.Unlock()

	var firstErr error
	for _, f := range frames {
		if err := r.flood(sid, f, neighbors, ""); err != nil && firstErr == nil {
			firstErr = err
		}
		r.redriven.Add(1)
	}
	return firstErr
}

// onFrame handles one arriving relay frame: deliver in per-origin
// sequence order, then re-forward to tree neighbors except the inbound
// hop. Duplicates are forwarded (TTL keeps that bounded) but not
// re-delivered, so a redrive flood crosses nodes that already have the
// frames and still reaches the gap downstream.
func (r *Relay) onFrame(env *wire.Envelope) {
	f, ok := env.Body.(*wire.RelayFrame)
	if !ok {
		r.unbound.Add(1)
		return
	}
	r.mu.Lock()
	st, bound := r.sessions[f.SessionID]
	if !bound {
		r.mu.Unlock()
		r.unbound.Add(1)
		return
	}
	if f.Origin == st.self {
		// Our own frame looped back during a reconfiguration window;
		// everyone reachable already heard our flood.
		r.mu.Unlock()
		r.dupDropped.Add(1)
		return
	}
	var deliver []*wire.RelayFrame
	os := st.origins[f.Origin]
	if os == nil {
		os = &originState{pending: make(map[uint64]*wire.RelayFrame)}
		st.origins[f.Origin] = os
	}
	switch {
	case os.next == 0:
		// First frame from this origin fixes the baseline: a member
		// present from the start sees Seq 1 first (FIFO channels from
		// the origin's flood), a late joiner starts at the join point.
		os.next = f.Seq + 1
		deliver = append(deliver, f)
	case f.Seq < os.next:
		r.dupDropped.Add(1)
	case f.Seq == os.next:
		deliver = append(deliver, f)
		os.next++
		for {
			nf, ok := os.pending[os.next]
			if !ok {
				break
			}
			delete(os.pending, os.next)
			deliver = append(deliver, nf)
			os.next++
		}
	default: // ahead of sequence: park until the gap fills
		if _, dup := os.pending[f.Seq]; !dup {
			cp := *f
			cp.CopyBody()
			os.pending[f.Seq] = &cp
		} else {
			r.dupDropped.Add(1)
		}
	}
	// Forward to every tree neighbor except the hop it came from. On a
	// consistent tree this floods each frame along every edge exactly
	// once; while views disagree mid-repair the TTL bounds the echo.
	var neighbors []Member
	if f.TTL > 0 {
		neighbors = st.tree.Neighbors(st.self)
	} else {
		r.ttlDrops.Add(1)
	}
	inbound := env.FromDapplet
	r.mu.Unlock()

	if len(neighbors) > 0 {
		fwd := *f
		fwd.TTL--
		skip := ""
		for _, n := range neighbors {
			if n.Addr == inbound {
				skip = n.Name
				break
			}
		}
		kept := 0
		for _, n := range neighbors {
			if n.Name != skip && n.Name != f.Origin {
				kept++
			}
		}
		if kept > 0 {
			_ = r.flood(f.SessionID, &fwd, neighbors, skip)
			r.forwarded.Add(uint64(kept))
		}
	}
	for _, df := range deliver {
		r.deliverLocal(df)
	}
}

// deliverLocal decodes a frame's payload and queues it into the
// session's inbox through the dapplet's normal arrival path, presenting
// the origin's identity and Lamport stamp so the application cannot
// distinguish tree delivery from a direct send.
func (r *Relay) deliverLocal(f *wire.RelayFrame) {
	msg, err := wire.DecodeBody(f.BodyID, f.Body)
	if err != nil {
		r.unbound.Add(1)
		return
	}
	r.d.DeliverLocal(&wire.Envelope{
		To:          wire.InboxRef{Dapplet: r.d.Addr(), Inbox: f.Inbox},
		FromDapplet: f.OriginAddr,
		FromOutbox:  f.OriginOutbox,
		Session:     f.SessionID,
		Lamport:     f.Lamport,
		Body:        msg,
	})
	r.delivered.Add(1)
}
