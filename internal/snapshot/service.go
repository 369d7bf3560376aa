package snapshot

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/state"
	"repro/internal/wire"
)

// StateFunc captures a dapplet's local state; the result must be
// JSON-serializable.
type StateFunc func() any

// CheckpointVar is the store variable holding a participant's most
// recent locally recorded checkpoint. It is written at the instant the
// local state is recorded — before the report travels anywhere — so the
// record survives a crash of the participant or of the coordinator, and
// a restarted incarnation can recover from it (LastCheckpoint).
const CheckpointVar = "@snap.last"

// Checkpoint is one participant's durable local checkpoint record.
type Checkpoint struct {
	// ID is the snapshot id the record was taken for.
	ID string `json:"sid"`
	// State is the participant's recorded local state (JSON).
	State json.RawMessage `json:"st"`
	// Lamport is the participant's logical clock at the record point.
	Lamport uint64 `json:"lam"`
	// Channels holds the in-flight messages captured on this
	// participant's inbound channels after the record point — the
	// channel states of §4. They carry everything a restarted
	// incarnation needs to re-queue them (ReplayChannels).
	Channels []ChannelMsg `json:"ch,omitempty"`
}

// ChannelMsg is one in-flight message captured as channel state: a
// message sent before the cut that arrived after this participant's
// record point. The original envelope metadata is kept so a replay is
// indistinguishable from the original arrival.
type ChannelMsg struct {
	// Peer names the sending participant.
	Peer string `json:"p"`
	// Inbox is the destination inbox on the capturing dapplet.
	Inbox string `json:"in"`
	// From is the sender's address at capture time.
	From netsim.Addr `json:"fa"`
	// FromOutbox names the sender's outbox.
	FromOutbox string `json:"fo,omitempty"`
	// Session is the session id the message traveled under, if any.
	Session string `json:"s,omitempty"`
	// Lamport is the message's original logical stamp.
	Lamport uint64 `json:"lam"`
	// Body is the kind-tagged message payload (wire.Marshal form).
	Body []byte `json:"b"`
}

// LastCheckpoint reads the most recent local checkpoint from a store
// (typically one that survived a crash), reporting whether one exists.
func LastCheckpoint(st *state.Store) (Checkpoint, bool) {
	var cp Checkpoint
	ok, err := st.Get(CheckpointVar, &cp)
	return cp, ok && err == nil
}

// ReplayChannels re-queues the in-flight messages recorded as channel
// state in the dapplet's last durable checkpoint into its inboxes,
// preserving each message's original sender identity and Lamport stamp —
// the recovery half of §4's channel states, mirroring the relay layer's
// replay redrive. Call it on a restarted incarnation after the local
// state has been rolled back to the checkpoint, before resuming message
// processing. It returns the number of messages re-queued.
func ReplayChannels(d *core.Dapplet) (int, error) {
	cp, ok := LastCheckpoint(d.Store())
	if !ok {
		return 0, nil
	}
	for i, r := range cp.Channels {
		msg, err := wire.Unmarshal(r.Body)
		if err != nil {
			return i, fmt.Errorf("snapshot: replay channel msg %d from %q: %w", i, r.Peer, err)
		}
		d.DeliverLocal(&wire.Envelope{
			To:          wire.InboxRef{Dapplet: d.Addr(), Inbox: r.Inbox},
			FromDapplet: r.From,
			FromOutbox:  r.FromOutbox,
			Session:     r.Session,
			Lamport:     r.Lamport,
			Body:        msg,
		})
	}
	return len(cp.Channels), nil
}

// run is one snapshot run at this member, marker or clock: its record,
// taken under core.Dapplet.Quiesce together with the markers (or, for a
// clock run, the flushes) that close this member's outgoing channels,
// and its inbound channels, each open from the record until the peer's
// own marker or flush arrives. A clock run also waits for its collect:
// the collect follows the take on the coordinator's channel, so once it
// has arrived nothing of the run is still to come, and forgetting the
// run cannot let a late take start it again.
type run struct {
	clock     bool   // a clock run: closed by flushes, recorded at T
	t         uint64 // the clock run's checkpoint time
	replyTo   wire.InboxRef
	recorded  bool
	collected bool // a clock run's collect has arrived
	state     json.RawMessage
	// sentAt and recvAt are each peer's transport counts at the record
	// (Reliable.Counts); crossed counts the frames from each peer taken
	// while its channel was open, and channels the application messages
	// among them.
	sentAt   map[string]uint64
	recvAt   map[string]uint64
	crossed  map[string]uint64
	channels map[string][][]byte
	open     map[string]bool // inbound channels still recording
}

// Service makes a dapplet snapshot-capable: it takes part in marker and
// clock-based snapshot runs on the dapplet's "@snap" traffic, recording
// the dapplet's state and its channels. Control messages are processed
// in the receive observer, so they stay FIFO-ordered with the rest of
// each channel's traffic. Channel counts are the transport's: nothing
// watches the dapplet's sends.
type Service struct {
	d       *core.Dapplet
	stateFn StateFunc

	mu     sync.Mutex
	peers  []Member
	byAddr map[netsim.Addr]string
	runs   map[string]*run // by snapshot id
}

// Attach equips the dapplet with the snapshot service. stateFn is invoked
// at the instant the local state is recorded, inside
// core.Dapplet.Quiesce: it must not send through the dapplet or wait.
func Attach(d *core.Dapplet, stateFn StateFunc) *Service {
	s := &Service{
		d:       d,
		stateFn: stateFn,
		byAddr:  make(map[netsim.Addr]string),
		runs:    make(map[string]*run),
	}
	// Drain the control inbox; actual processing happens in onRecv so it
	// is ordered with application traffic.
	d.Handle(ControlInbox, func(*wire.Envelope) {})
	d.OnRecv(s.onRecv)
	return s
}

// Pending returns the number of snapshot runs (marker and clock) this
// participant is still tracking. A participant whose coordinator crashed
// mid-snapshot must drain back to zero once the surviving members'
// markers arrive — pending state must not leak. A clock run also waits
// for its collect, which the coordinator sends right after the take.
func (s *Service) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// SetPeers declares the other participants whose channels this dapplet
// must track (typically the session roster minus itself).
func (s *Service) SetPeers(peers []Member) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = append([]Member(nil), peers...)
	s.byAddr = make(map[netsim.Addr]string, len(peers))
	for _, p := range peers {
		s.byAddr[p.Addr] = p.Name
	}
}

func (s *Service) onRecv(env *wire.Envelope) {
	if env.To.Inbox == ControlInbox {
		s.onControl(env)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.runs) == 0 {
		return
	}
	// A clock run records once the clock reaches T, before this arrival
	// counts: it is the first event after the checkpoint.
	now := s.d.Clock().Now()
	for id, r := range s.runs {
		if r.clock && now >= r.t {
			s.recordLocked(id, r)
		}
	}
	if !isAppEnvelope(env) {
		return
	}
	peer, ok := s.byAddr[env.FromDapplet]
	if !ok {
		return
	}
	// The message reached this member after its record point and before
	// the peer's closing marker or flush: it is channel state.
	var rec *ChannelMsg
	for id, r := range s.runs {
		if !r.open[peer] {
			continue
		}
		if rec == nil {
			body, _ := wire.Marshal(env.Body)
			rec = &ChannelMsg{
				Peer:       peer,
				Inbox:      env.To.Inbox,
				From:       env.FromDapplet,
				FromOutbox: env.FromOutbox,
				Session:    env.Session,
				Lamport:    env.Lamport,
				Body:       body,
			}
		}
		r.channels[peer] = append(r.channels[peer], rec.Body)
		s.persistChannelMsgLocked(id, *rec)
	}
}

func (s *Service) onControl(env *wire.Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := env.Body.(type) {
	case *startMsg:
		r := s.runLocked(m.SnapID, false, 0, m.ReplyTo)
		s.recordLocked(m.SnapID, r)
		s.maybeReportLocked(m.SnapID, r)
	case *markerMsg:
		s.closeLocked(m.SnapID, s.runLocked(m.SnapID, false, 0, m.ReplyTo), m.From)
	case *takeMsg:
		r := s.runLocked(m.SnapID, true, m.T, m.ReplyTo)
		if s.d.Clock().Now() >= m.T {
			s.recordLocked(m.SnapID, r)
		}
	case *collectMsg:
		// The collect is stamped after T, so the clock has passed T.
		if r := s.runs[m.SnapID]; r != nil {
			r.collected = true
			s.recordLocked(m.SnapID, r)
			s.maybeReportLocked(m.SnapID, r)
		}
	case *flushMsg:
		s.closeLocked(m.SnapID, s.runLocked(m.SnapID, true, m.T, m.ReplyTo), m.From)
	}
}

// runLocked returns the run with the given id, creating it if this is
// the first this member hears of it.
func (s *Service) runLocked(id string, clock bool, t uint64, replyTo wire.InboxRef) *run {
	r := s.runs[id]
	if r == nil {
		r = &run{clock: clock, t: t, replyTo: replyTo, channels: make(map[string][][]byte)}
		s.runs[id] = r
	}
	return r
}

// recordLocked records the member's state, unless it has, and closes its
// outgoing channels, as one step against its sends (Quiesce): the peers'
// counts then stand where the closing marker or flush enters each
// channel, so a frame counted was sent before the record and one not
// counted follows the marker. Every inbound channel opens. Caller holds
// s.mu.
func (s *Service) recordLocked(id string, r *run) {
	if r.recorded {
		return
	}
	r.recorded = true
	r.sentAt = make(map[string]uint64, len(s.peers))
	r.recvAt = make(map[string]uint64, len(s.peers))
	r.crossed = make(map[string]uint64, len(s.peers))
	r.open = make(map[string]bool, len(s.peers))
	var closing wire.Msg = &markerMsg{SnapID: id, From: s.d.Name(), ReplyTo: r.replyTo}
	if r.clock {
		closing = &flushMsg{SnapID: id, T: r.t, From: s.d.Name(), ReplyTo: r.replyTo}
	}
	rel := s.d.Transport()
	var lamport uint64
	s.d.Quiesce(func(send core.QuiescedSend) {
		r.state, _ = json.Marshal(s.stateFn())
		lamport = s.d.Clock().Now()
		for _, p := range s.peers {
			r.sentAt[p.Name], r.recvAt[p.Name] = rel.Counts(p.Addr)
			r.open[p.Name] = true
			_ = send(wire.InboxRef{Dapplet: p.Addr, Inbox: ControlInbox}, id, closing)
		}
	})
	s.persistCheckpoint(id, r.state, lamport)
}

// closeLocked ends the recording of the channel from peer, whose marker
// or flush has arrived, recording first if this is the first this member
// has seen of the run (the channel is then empty). The marker itself is
// being delivered, so the transport's count stops just before it.
func (s *Service) closeLocked(id string, r *run, peer string) {
	s.recordLocked(id, r)
	if r.open[peer] {
		delete(r.open, peer)
		for _, p := range s.peers {
			if p.Name == peer {
				_, delivered := s.d.Transport().Counts(p.Addr)
				r.crossed[peer] = delivered - r.recvAt[peer]
			}
		}
	}
	s.maybeReportLocked(id, r)
}

// maybeReportLocked sends the report, and forgets the run, once it is
// recorded, every inbound channel is closed and, for a clock run, the
// collect has arrived: no count or channel of the run can change any
// more, and no message of the run is still on its way.
func (s *Service) maybeReportLocked(id string, r *run) {
	if !r.recorded || len(r.open) > 0 || r.clock && !r.collected {
		return
	}
	delete(s.runs, id)
	_ = s.d.SendDirect(r.replyTo, id, &reportMsg{
		SnapID:   id,
		Name:     s.d.Name(),
		State:    r.state,
		SentAt:   r.sentAt,
		RecvAt:   r.recvAt,
		Crossed:  r.crossed,
		Channels: r.channels,
	})
}

// persistCheckpoint writes the just-recorded local state durably (see
// CheckpointVar). Caller holds s.mu; the store has its own lock.
func (s *Service) persistCheckpoint(id string, st json.RawMessage, lamport uint64) {
	_ = s.d.Store().Set(CheckpointVar, Checkpoint{ID: id, State: st, Lamport: lamport})
}

// persistChannelMsgLocked appends one captured channel message to the
// durable checkpoint record, write-through so the channel state survives
// a crash at any point during recording. Only the snapshot currently in
// CheckpointVar accumulates channels; a concurrent run with a different
// id leaves the durable record alone (its report still carries the full
// channel state in memory). Caller holds s.mu.
func (s *Service) persistChannelMsgLocked(id string, rec ChannelMsg) {
	var cp Checkpoint
	ok, err := s.d.Store().Get(CheckpointVar, &cp)
	if !ok || err != nil || cp.ID != id {
		return
	}
	cp.Channels = append(cp.Channels, rec)
	_ = s.d.Store().Set(CheckpointVar, cp)
}
