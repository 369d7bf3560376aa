package snapshot

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// markerSnap is the per-snapshot state of a marker (Chandy–Lamport) run.
type markerSnap struct {
	replyTo   wire.InboxRef
	recorded  bool
	state     json.RawMessage
	sentAt    map[string]uint64
	recvAt    map[string]uint64
	recording map[string]bool
	channels  map[string][][]byte
	awaiting  int
}

// clockSnap is the per-snapshot state of a clock-based checkpoint.
type clockSnap struct {
	t         uint64
	replyTo   wire.InboxRef
	recorded  bool
	state     json.RawMessage
	sentAt    map[string]uint64
	recvAt    map[string]uint64
	channels  map[string][][]byte
	flushed   map[string]bool
	awaiting  int
	flushSent bool
}

// Service makes a dapplet snapshot-capable: it watches every application
// message the dapplet sends and receives, keeps per-peer counters, and
// participates in marker and clock-based snapshot protocols on the
// dapplet's "@snap" traffic. Control messages are processed in the
// receive observer so they stay FIFO-ordered with application messages
// on each channel; what the protocols send leaves from a thread.
type Service struct {
	d       *core.Dapplet
	stateFn StateFunc

	mu      sync.Mutex
	peers   []Member
	byAddr  map[netsim.Addr]string
	sent    map[string]uint64
	recv    map[string]uint64
	markers map[string]*markerSnap
	clocks  map[string]*clockSnap

	// out holds the control sends not yet taken by the dispatcher, which
	// runs while done, the sends transmitted, is below queued. parked[n]
	// counts the application sends waiting for done to reach n.
	out    []func()          // guarded by mu
	queued uint64            // guarded by mu
	done   uint64            // guarded by mu
	parked map[uint64]uint64 // guarded by mu
	moved  *sync.Cond        // on mu, broadcast as done grows

	// seen counts the envelopes the send observer passed on to the
	// transport, bar parked ones; see settle.
	seen atomic.Uint64
	base uint64 // the transport's DataSent at Attach
}

// Attach equips the dapplet with the snapshot service. stateFn is invoked
// at the instant the local state is recorded.
func Attach(d *core.Dapplet, stateFn StateFunc) *Service {
	s := &Service{
		d:       d,
		stateFn: stateFn,
		byAddr:  make(map[netsim.Addr]string),
		sent:    make(map[string]uint64),
		recv:    make(map[string]uint64),
		markers: make(map[string]*markerSnap),
		clocks:  make(map[string]*clockSnap),
		parked:  make(map[uint64]uint64),
		base:    d.Transport().Stats().DataSent,
	}
	s.moved = sync.NewCond(&s.mu)
	// Drain the control inbox; actual processing happens in onRecv so it
	// is ordered with application traffic.
	d.Handle(ControlInbox, func(*wire.Envelope) {})
	d.OnRecv(s.onRecv)
	d.OnSend(s.onSend)
	return s
}

// Pending returns the number of snapshot runs (marker and clock) this
// participant is still tracking. A participant whose coordinator crashed
// mid-snapshot must drain back to zero once the surviving members'
// markers/flushes arrive — pending state must not leak.
func (s *Service) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.markers) + len(s.clocks)
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

func (s *Service) onSend(env *wire.Envelope) {
	s.seen.Add(1)
	if !isAppEnvelope(env) {
		return
	}
	s.mu.Lock()
	peer, ok := s.byAddr[env.To.Dapplet]
	if !ok {
		s.mu.Unlock()
		return
	}
	// A send stamped at or after T is a post-checkpoint event: the local
	// state must be recorded before it is counted (§4.2). One stamped
	// before T but counted after the record precedes the cut, unless
	// this member's flushes are queued: it will follow them.
	for id, cs := range s.clocks {
		switch {
		case !cs.recorded && env.Lamport >= cs.t:
			s.recordClockLocked(id, cs)
		case cs.recorded && !cs.flushSent && env.Lamport < cs.t:
			cs.sentAt[peer]++
		}
	}
	s.sent[peer]++
	if target := s.queued; s.done < target {
		// Counted after a record point whose markers or flushes are
		// still queued, this send must follow them on its channel.
		s.parked[target]++
		s.seen.Add(^uint64(0))
		for s.done < target {
			s.moved.Wait()
		}
	}
	s.mu.Unlock()
}

// sendLocked queues a control send, starting a dispatcher if none runs.
// Caller holds s.mu.
func (s *Service) sendLocked(to wire.InboxRef, sid string, msg wire.Msg) {
	if s.done == s.queued {
		s.d.Spawn(s.dispatch)
	}
	s.out = append(s.out, func() { _ = s.d.SendDirect(to, sid, msg) })
	s.queued++
}

// dispatch transmits the queued control sends in order, each once every
// send counted before it was queued has its place in its channel
// (settle), and releases the sends parked behind it.
func (s *Service) dispatch() {
	s.mu.Lock()
	for len(s.out) > 0 {
		send := s.out[0]
		s.out = s.out[1:]
		s.mu.Unlock()
		s.settle()
		send()
		s.mu.Lock()
		s.done++
		s.seen.Add(s.parked[s.done]) // in flight again, before the next settle
		delete(s.parked, s.done)
		s.moved.Broadcast()
	}
	s.mu.Unlock()
}

// settle waits until the transport has sequenced (DataSent) every send
// the observer has seen, bar parked ones: a send counted before a record
// point may still be on its way, and the marker or flush closing its
// channel must not overtake it. It gives up once the dapplet stops,
// when sends fail anyway.
func (s *Service) settle() {
	rel := s.d.Transport()
	for rel.Stats().DataSent-s.base < s.seen.Load() {
		select {
		case <-s.d.Stopped():
			return
		case <-time.After(20 * time.Microsecond):
		}
	}
}

func (s *Service) onRecv(env *wire.Envelope) {
	if env.To.Inbox == ControlInbox {
		s.onControl(env)
		return
	}
	if !isAppEnvelope(env) {
		return
	}
	s.mu.Lock()
	peer, ok := s.byAddr[env.FromDapplet]
	if !ok {
		s.mu.Unlock()
		return
	}
	body, _ := wire.Marshal(env.Body)
	rec := ChannelMsg{
		Peer:       peer,
		Inbox:      env.To.Inbox,
		From:       env.FromDapplet,
		FromOutbox: env.FromOutbox,
		Session:    env.Session,
		Lamport:    env.Lamport,
		Body:       body,
	}

	// Marker snapshots: channel recording between record point and the
	// channel's marker arrival.
	for id, ms := range s.markers {
		if ms.recorded && ms.recording[peer] {
			ms.channels[peer] = append(ms.channels[peer], body)
			s.persistChannelMsgLocked(id, rec)
		}
	}
	// Clock checkpoints: trigger on the first post-T message, and capture
	// pre-T messages that arrive after the record point.
	for id, cs := range s.clocks {
		if !cs.recorded && env.Lamport >= cs.t {
			s.recordClockLocked(id, cs)
		}
		if cs.recorded && !cs.flushed[peer] && env.Lamport < cs.t {
			cs.channels[peer] = append(cs.channels[peer], body)
			s.persistChannelMsgLocked(id, rec)
		}
	}
	s.recv[peer]++
	s.mu.Unlock()
}

func (s *Service) onControl(env *wire.Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := env.Body.(type) {
	case *startMsg:
		s.startMarkerLocked(m.SnapID, m.ReplyTo, "")
	case *markerMsg:
		s.onMarkerLocked(m)
	case *takeMsg:
		s.armClockLocked(m.SnapID, m.T, m.ReplyTo)
	case *collectMsg:
		s.onCollectLocked(m)
	case *flushMsg:
		s.onFlushLocked(m)
	}
}

// --- marker protocol ---

func copyCounts(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// startMarkerLocked records local state and emits markers; fromPeer
// names the channel whose marker triggered it ("" when initiating).
func (s *Service) startMarkerLocked(id string, replyTo wire.InboxRef, fromPeer string) {
	ms := s.markers[id]
	if ms == nil {
		ms = &markerSnap{
			replyTo:   replyTo,
			recording: make(map[string]bool),
			channels:  make(map[string][][]byte),
		}
		s.markers[id] = ms
	}
	if ms.recorded {
		return
	}
	ms.recorded = true
	ms.state, _ = json.Marshal(s.stateFn())
	ms.sentAt = copyCounts(s.sent)
	ms.recvAt = copyCounts(s.recv)
	s.persistCheckpoint(id, ms.state)
	for _, p := range s.peers {
		if p.Name == fromPeer {
			continue // the triggering channel's state is empty by rule
		}
		ms.recording[p.Name] = true
		ms.awaiting++
	}
	// Relay markers on all outgoing channels.
	for _, p := range s.peers {
		s.sendLocked(wire.InboxRef{Dapplet: p.Addr, Inbox: ControlInbox}, id,
			&markerMsg{SnapID: id, From: s.d.Name(), ReplyTo: replyTo})
	}
	if ms.awaiting == 0 {
		s.reportMarkerLocked(id)
	}
}

func (s *Service) onMarkerLocked(m *markerMsg) {
	ms := s.markers[m.SnapID]
	if ms == nil || !ms.recorded {
		// First marker: record state; the arrival channel is empty.
		s.startMarkerLocked(m.SnapID, m.ReplyTo, m.From)
		return
	}
	if ms.recording[m.From] {
		ms.recording[m.From] = false
		ms.awaiting--
		if ms.awaiting == 0 {
			s.reportMarkerLocked(m.SnapID)
		}
	}
}

// reportMarkerLocked sends the finished run's report and forgets it.
func (s *Service) reportMarkerLocked(id string) {
	ms := s.markers[id]
	if ms == nil {
		return
	}
	delete(s.markers, id)
	s.sendLocked(ms.replyTo, id, &reportMsg{
		SnapID:   id,
		Name:     s.d.Name(),
		State:    ms.state,
		SentAt:   ms.sentAt,
		RecvAt:   ms.recvAt,
		Channels: ms.channels,
	})
}

// --- clock-checkpoint protocol ---

func (s *Service) recordClockLocked(id string, cs *clockSnap) {
	cs.recorded = true
	cs.state, _ = json.Marshal(s.stateFn())
	cs.sentAt = copyCounts(s.sent)
	cs.recvAt = copyCounts(s.recv)
	s.persistCheckpoint(id, cs.state)
}

// persistCheckpoint writes the just-recorded local state durably (see
// CheckpointVar). Caller holds s.mu; the store has its own lock.
func (s *Service) persistCheckpoint(id string, st json.RawMessage) {
	_ = s.d.Store().Set(CheckpointVar, Checkpoint{ID: id, State: st, Lamport: s.d.Clock().Now()})
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

// armClockLocked creates (or returns) the checkpoint state for a snapshot
// id, recording immediately if the clock has already passed T.
func (s *Service) armClockLocked(id string, t uint64, replyTo wire.InboxRef) *clockSnap {
	if cs, ok := s.clocks[id]; ok {
		return cs
	}
	cs := &clockSnap{
		t:        t,
		replyTo:  replyTo,
		channels: make(map[string][][]byte),
		flushed:  make(map[string]bool),
		awaiting: len(s.peers),
	}
	s.clocks[id] = cs
	if s.d.Clock().Now() >= t {
		s.recordClockLocked(id, cs)
	}
	return cs
}

func (s *Service) onCollectLocked(m *collectMsg) {
	cs := s.clocks[m.SnapID]
	if cs == nil {
		return
	}
	if !cs.recorded {
		// The collect message's stamp exceeds T, so the clock has passed
		// T by now; record immediately.
		s.recordClockLocked(m.SnapID, cs)
	}
	if !cs.flushSent {
		cs.flushSent = true
		for _, p := range s.peers {
			s.sendLocked(wire.InboxRef{Dapplet: p.Addr, Inbox: ControlInbox}, m.SnapID,
				&flushMsg{SnapID: m.SnapID, T: cs.t, From: s.d.Name(), ReplyTo: cs.replyTo})
		}
	}
	s.maybeReportClockLocked(m.SnapID, cs)
}

func (s *Service) onFlushLocked(m *flushMsg) {
	cs := s.armClockLocked(m.SnapID, m.T, m.ReplyTo)
	if !cs.recorded {
		// The flush stamp exceeds T, so the clock has passed T.
		s.recordClockLocked(m.SnapID, cs)
	}
	if !cs.flushed[m.From] {
		cs.flushed[m.From] = true
		cs.awaiting--
	}
	s.maybeReportClockLocked(m.SnapID, cs)
}

// maybeReportClockLocked sends the report, and forgets the run, once it
// is recorded and every channel in and out is flushed: no count or
// channel of the run can change any more.
func (s *Service) maybeReportClockLocked(id string, cs *clockSnap) {
	if !cs.recorded || cs.awaiting > 0 || !cs.flushSent {
		return
	}
	delete(s.clocks, id)
	s.sendLocked(cs.replyTo, id, &reportMsg{
		SnapID:   id,
		Name:     s.d.Name(),
		State:    cs.state,
		SentAt:   cs.sentAt,
		RecvAt:   cs.recvAt,
		Channels: cs.channels,
	})
}
