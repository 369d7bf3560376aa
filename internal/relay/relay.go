package relay

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// InboxName is the control inbox every tree participant consumes relay
// frames on.
const InboxName = "@relay"

// DefaultReplay is the per-session replay ring capacity: the own recent
// frames kept for post-repair redrive.
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
}

// Binding describes one participant's place in one session's tree. It
// holds what that participant needs to relay — its neighbours and the
// hop budget — and never the roster: the session initiator lays the Tree
// out once and hands every participant its own corner of it.
type Binding struct {
	// Neighbors is this participant's tree neighbourhood: its parent
	// (unless it is the root) followed by its children, as
	// Tree.Neighbors lays them out. Bind keeps the slice; the caller
	// must not modify it afterwards.
	Neighbors []Member
	// Depth is the whole tree's root-to-leaf hop count (Tree.Depth). It
	// sets the hop budget of frames this participant originates.
	Depth int
	// Self is this dapplet's roster name; defaults to the dapplet's
	// instance name.
	Self string
	// Inbox is the inbox name the multicast delivers to at every member.
	Inbox string
	// Epoch is the tree version; Bind ignores epochs older than the one
	// already installed, so reordered relinks cannot roll the tree back.
	Epoch uint64
	// FromStart says this participant has been in the session since
	// before any member could send: every origin owes it its sequence
	// from 1, however the first frames reach it. One that joins a
	// running session — or a reincarnation, whose delivery state died
	// with its predecessor — leaves it false and takes the first frame
	// it hears from an origin as that origin's baseline. Only the Bind
	// that first installs the session reads it.
	FromStart bool
}

// originKey names one origin of one session in Relay.origins.
type originKey struct{ session, origin string }

// originState is the per-(session, origin) delivery cursor: frames are
// handed to the inbox strictly in sequence order, with ahead-of-sequence
// arrivals parked in pending until the gap fills. prev links a session's
// origins into a list (see sessionState.last) that Unbind walks.
type originState struct {
	next    uint64                      // 0 until the first frame fixes the baseline
	pending map[uint64]*wire.RelayFrame // nil until the origin's first gap
	prev    string                      // the origin first heard before this one
}

// sessionState is one tree binding plus its mutable multicast state,
// held by value in Relay.sessions and written back after a change.
// neighbors is replaced whole by a rebind and never written in place, so
// a slice header read under Relay.mu stays valid after the unlock. Go
// keeps a map value of at most 128 bytes in the map's own slots, so a
// session set up where one was torn down allocates nothing; this struct
// is at that bound, and a field more moves it out of line, an allocation
// per Bind.
type sessionState struct {
	neighbors []Member
	ttl       uint32 // hop budget for frames originated here
	fromStart bool   // origins' delivery cursors start at 1, not at the first frame heard
	self      string
	inbox     string
	epoch     uint64

	seq     uint64             // own origin sequence, last used
	replay  []*wire.RelayFrame // ring of own recent frames, oldest first
	origins int                // how many origins this session has heard
	last    string             // the origin heard last; the head of the prev list
}

// Relay is the per-dapplet tree multicast engine. It consumes frames on
// InboxName, delivers payloads to the session's inbox in per-origin
// sequence order, and re-forwards the shared encoded bytes to its own
// tree neighbors. It implements core.Multicaster, so a tree-bound
// outbox's Send goes through Multicast.
//
// Frames are handled on the goroutine that delivers them, the dapplet's
// receive goroutine, and forwarded with core.Dapplet.ForwardEncoded,
// which never waits for a neighbour's window and is never refused: past
// the window and the backlog's bound a forward joins the transport's
// backlog to that neighbour all the same, in order behind the ones
// before it, so no neighbour sees a gap in an origin's sequence and a
// slow neighbour holds up only its own forwards. The relay runs no
// thread of its own.
type Relay struct {
	d *core.Dapplet

	// mu guards both maps. They are relay-wide and hold values, so their
	// capacity carries over from session to session: a session set up
	// and torn down allocates nothing in them once warm.
	mu       sync.Mutex
	sessions map[string]sessionState
	origins  map[originKey]originState

	delivered  atomic.Uint64
	forwarded  atomic.Uint64
	dupDropped atomic.Uint64
	ttlDrops   atomic.Uint64
	unbound    atomic.Uint64
}

// Attach creates the dapplet's relay engine and registers its frame
// handler on InboxName, an inline inbox: frames are handled on the
// goroutine that delivers them, with no thread of the relay's own.
// Attach once per dapplet; the session layer does this lazily on the
// first tree binding.
func Attach(d *core.Dapplet) *Relay {
	r := &Relay{d: d, sessions: make(map[string]sessionState), origins: make(map[originKey]originState)}
	d.HandleInline(InboxName, r.onFrame)
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
	}
}

// Bind installs (or replaces) this participant's place in a session's
// tree. Bindings carry the tree epoch from the session layer; a Bind
// older than the installed epoch is ignored, and a rebind at the same or
// newer epoch keeps the session's sequence counters and delivery cursors
// so reconfiguration never resets ordering state.
func (r *Relay) Bind(sid string, b Binding) {
	self := b.Self
	if self == "" {
		self = r.d.Name()
	}
	// The longest cycle-free flood path is leaf→root→leaf (2×depth);
	// the slack covers the window where neighbourhoods disagree
	// mid-reconfiguration.
	ttl := uint32(2*b.Depth + 4)
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.sessions[sid]
	if !ok {
		st.fromStart = b.FromStart
	} else if b.Epoch < st.epoch {
		return // stale reconfiguration, already superseded
	}
	st.neighbors, st.ttl, st.self, st.inbox, st.epoch = b.Neighbors, ttl, self, b.Inbox, b.Epoch
	r.sessions[sid] = st
}

// Unbind drops a session's tree state (session terminated or this
// participant left), in time proportional to the origins it heard.
func (r *Relay) Unbind(sid string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.sessions[sid]
	if !ok {
		return
	}
	delete(r.sessions, sid)
	origin := st.last
	for range st.origins {
		k := originKey{sid, origin}
		origin = r.origins[k].prev
		delete(r.origins, k)
	}
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

// Neighbors returns a copy of the neighbours installed for a session and
// the hop budget its own frames start with (nil and 0 if unbound).
func (r *Relay) Neighbors(sid string) ([]Member, uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.sessions[sid]; ok {
		return append([]Member(nil), st.neighbors...), st.ttl
	}
	return nil, 0
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
		Origin:       st.self,
		OriginOutbox: outbox,
		Lamport:      lamport,
		Seq:          st.seq,
		Epoch:        st.epoch,
		TTL:          st.ttl,
		BodyID:       body.ID(),
		Body:         body.Bytes(),
	}
	// The replay copy owns its bytes: body's buffer is pooled and
	// released when Multicast returns.
	kept := *frame
	kept.CopyBody()
	st.replay = append(st.replay, &kept)
	if len(st.replay) > DefaultReplay {
		st.replay = st.replay[len(st.replay)-DefaultReplay:]
	}
	r.sessions[session] = st
	neighbors := st.neighbors
	r.mu.Unlock()

	_, err = r.flood(session, frame, neighbors, netsim.Addr{}, r.d.SendEncoded)
	return err
}

// flood transmits frame to every neighbor except its origin and the one
// at address inbound (the hop it arrived from; zero for a frame that
// starts here). The frame is encoded once, on the first neighbor that
// qualifies, and the identical bytes go to each with send: the
// dapplet's SendEncoded, which waits for the neighbour's window, on
// Multicast's application thread, and ForwardEncoded, which never
// waits, for forwards and Redrive's re-flood. It
// returns how many transmissions it made and the first send error.
func (r *Relay) flood(session string, frame *wire.RelayFrame, neighbors []Member, inbound netsim.Addr, send func(wire.InboxRef, string, wire.Msg, wire.Body) error) (int, error) {
	var (
		enc      wire.Body
		sent     int
		firstErr error
	)
	defer enc.Release()
	for _, n := range neighbors {
		if skipped(n, inbound, frame.Origin) {
			continue
		}
		if sent == 0 {
			var err error
			if enc, err = wire.EncodeBody(frame); err != nil {
				return 0, err
			}
		}
		to := wire.InboxRef{Dapplet: n.Addr, Inbox: InboxName}
		if err := send(to, session, frame, enc); err != nil && firstErr == nil {
			firstErr = err
		}
		sent++
	}
	return sent, firstErr
}

// skipped reports whether flood passes neighbour n over: a frame never
// goes back to the hop it came in on or to its origin.
func skipped(n Member, inbound netsim.Addr, origin string) bool {
	return n.Addr == inbound || n.Name == origin
}

// Redrive re-floods the session's replay ring to the current tree
// neighbors. The session layer calls it after a repair relink so frames
// the failed relay swallowed reach the re-parented subtree; per-origin
// sequence dedup makes the re-flood idempotent everywhere else. It
// never waits: the re-flood is owed sends (ForwardEncoded), as a flood
// of forwards is, and what it owes each neighbour is bounded by the
// ring, DefaultReplay frames. So the relink handler runs it inline.
//
//wwlint:nowait the session layer's relink handler runs it on the receive goroutine
func (r *Relay) Redrive(sid string) error {
	r.mu.Lock()
	st, ok := r.sessions[sid]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("relay: session %q is not tree-bound on %q", sid, r.d.Name())
	}
	frames := make([]*wire.RelayFrame, len(st.replay))
	for i, f := range st.replay {
		cp := *f
		cp.TTL = st.ttl // refresh the hop budget for the new tree shape
		frames[i] = &cp
	}
	neighbors := st.neighbors
	r.mu.Unlock()

	var firstErr error
	for _, f := range frames {
		if _, err := r.flood(sid, f, neighbors, netsim.Addr{}, r.d.ForwardEncoded); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// onFrame handles one arriving relay frame: deliver in per-origin
// sequence order, then re-forward to tree neighbors except the inbound
// hop. Duplicates are forwarded (TTL keeps that bounded) but not
// re-delivered, so a redrive flood crosses nodes that already have the
// frames and still reaches the gap downstream. The carrier envelope names
// the session, and the transport the origin of a frame that names none.
//
// It runs on the delivering goroutine and never waits. env and its frame
// are lent (core.Dapplet.HandleInline): the frame is forwarded (the
// transport copies it) and delivered before onFrame returns, and a
// parked frame, which outlives it, is a copy.
func (r *Relay) onFrame(env *wire.Envelope) {
	f, ok := env.Body.(*wire.RelayFrame)
	if !ok || env.Session == "" {
		r.unbound.Add(1)
		return
	}
	sid := env.Session
	if f.OriginAddr.IsZero() { // straight from its origin
		f.OriginAddr = env.FromDapplet
	}
	r.mu.Lock()
	st, bound := r.sessions[sid]
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
	var buf [4]*wire.RelayFrame // keeps the usual short run off the heap
	deliver, inbox := buf[:0], st.inbox
	key := originKey{sid, f.Origin}
	os, heard := r.origins[key]
	if !heard {
		if st.fromStart {
			// Owed everything: a later frame that overtakes Seq 1 — a
			// neighbour rebound mid-flood forwards what it still had
			// queued down its new edges — waits for it, and the redrive
			// brings it.
			os.next = 1
		}
		os.prev, st.last = st.last, f.Origin
		st.origins++
		r.sessions[sid] = st
	}
	switch {
	case os.next == 0:
		// A late joiner starts each origin at the first frame it hears.
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
			if os.pending == nil {
				os.pending = make(map[uint64]*wire.RelayFrame)
			}
			os.pending[f.Seq] = &cp
		} else {
			r.dupDropped.Add(1)
		}
	}
	r.origins[key] = os
	// Forward to every tree neighbor except the hop it came from. On a
	// consistent tree this floods each frame along every edge exactly
	// once; while views disagree mid-repair the TTL bounds the echo.
	var neighbors []Member
	if f.TTL > 0 {
		neighbors = st.neighbors
	} else {
		r.ttlDrops.Add(1)
	}
	r.mu.Unlock()

	if len(neighbors) > 0 { // hop budget left
		f.TTL-- // in the lent frame itself: delivery does not read it
		sent, _ := r.flood(sid, f, neighbors, env.FromDapplet, r.d.ForwardEncoded)
		r.forwarded.Add(uint64(sent))
	}
	for _, df := range deliver {
		r.deliverLocal(sid, inbox, df)
	}
}

// deliverLocal decodes a frame's payload and queues it into the
// session's inbox through the dapplet's normal arrival path, presenting
// the origin's identity and Lamport stamp so the application cannot
// distinguish tree delivery from a direct send.
func (r *Relay) deliverLocal(sid, inbox string, f *wire.RelayFrame) {
	msg, err := wire.DecodeBody(f.BodyID, f.Body)
	if err != nil {
		r.unbound.Add(1)
		return
	}
	r.d.DeliverLocal(&wire.Envelope{
		To:          wire.InboxRef{Dapplet: r.d.Addr(), Inbox: inbox},
		FromDapplet: f.OriginAddr,
		FromOutbox:  f.OriginOutbox,
		Session:     sid,
		Lamport:     f.Lamport,
		Body:        msg,
	})
	r.delivered.Add(1)
}
