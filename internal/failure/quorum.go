package failure

import (
	"context"
	"time"

	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/wire"
)

// Verdict quorums: with Config.Gossip set, a watcher's Suspect no longer
// escalates to Down on its own clock alone: it needs gossipQuorum
// confirmers. Raising the suspicion
// asks indirectProbes live peers to probe the target on the watcher's
// behalf (SWIM's indirect probe — a relay on a different network path can
// often reach a peer the watcher cannot), and spreads the suspicion as a
// gossip rumor when an engine is attached. Down requires the detection
// window AND a quorum of distinct confirmers — this watcher, relays whose
// probes failed, gossip origins that suspect the same incarnation. A
// single watcher cut off by a partition therefore stays at Suspect
// forever: its relays answer "reachable", which refutes the suspicion
// outright. Refutations also travel as alive rumors (a peer that hears
// itself suspected announces its incarnation), and an alive rumor lifts
// Suspect but never Down — only a direct incarnation-carrying beacon
// lifts Down, so a stale rumor cannot resurrect a dead peer.

// GossipTopic is the rumor topic failure verdicts spread on.
const GossipTopic = "fail"

// indirectProbes is how many live peers are asked to probe a freshly
// suspected peer on a watcher's behalf when its quorum is above one.
const indirectProbes = 2

// gossipQuorum is the Down quorum of a detector with a gossip engine.
const gossipQuorum = 2

// Verdict rumor kinds (verdictRumor.Verdict).
const (
	rumorAlive   = 0
	rumorSuspect = 1
	rumorDown    = 2
)

// iprobeMsg asks a relay to probe Target at the given address on the
// sender's behalf; it travels bare (one-way) on the "@fail" inbox, and
// the relay's handler, which runs on its receive goroutine, probes from
// a thread of its own.
type iprobeMsg struct {
	Target string
	Host   string
	Port   uint16
	Inc    uint64
	From   string
}

// Kind implements wire.Msg.
func (*iprobeMsg) Kind() string { return "fail.iprobe" }

// AppendBinary implements wire.Msg.
func (m *iprobeMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Target)
	dst = wire.AppendString(dst, m.Host)
	dst = wire.AppendUvarint(dst, uint64(m.Port))
	dst = wire.AppendUvarint(dst, m.Inc)
	return wire.AppendString(dst, m.From), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *iprobeMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Target = r.String()
	m.Host = r.String()
	m.Port = r.Port()
	m.Inc = r.Uvarint()
	m.From = r.String()
	return r.Done()
}

// iprobeRepMsg reports a relay's indirect-probe outcome back to the
// suspecting watcher (bare, one-way). Inc is the incarnation the target
// answered with when Reachable, or an echo of the suspected incarnation
// otherwise, so the watcher can discard outcomes about a stale suspicion.
type iprobeRepMsg struct {
	Target    string
	Relay     string
	Inc       uint64
	Reachable bool
}

// Kind implements wire.Msg.
func (*iprobeRepMsg) Kind() string { return "fail.iprobe-rep" }

// AppendBinary implements wire.Msg.
func (m *iprobeRepMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Target)
	dst = wire.AppendString(dst, m.Relay)
	dst = wire.AppendUvarint(dst, m.Inc)
	return wire.AppendBool(dst, m.Reachable), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *iprobeRepMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Target = r.String()
	m.Relay = r.String()
	m.Inc = r.Uvarint()
	m.Reachable = r.Bool()
	return r.Done()
}

// verdictRumor is one failure opinion spread by gossip: a suspicion or
// down verdict about Target's incarnation, or an alive refutation
// (usually from the target itself).
type verdictRumor struct {
	Target  string
	Host    string
	Port    uint16
	Inc     uint64
	Verdict uint8
}

// Kind implements wire.Msg.
func (*verdictRumor) Kind() string { return "fail.rumor" }

// AppendBinary implements wire.Msg.
func (m *verdictRumor) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Target)
	dst = wire.AppendString(dst, m.Host)
	dst = wire.AppendUvarint(dst, uint64(m.Port))
	dst = wire.AppendUvarint(dst, m.Inc)
	return wire.AppendUvarint(dst, uint64(m.Verdict)), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *verdictRumor) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Target = r.String()
	m.Host = r.String()
	m.Port = r.Port()
	m.Inc = r.Uvarint()
	m.Verdict = uint8(r.Uvarint())
	return r.Done()
}

func init() {
	wire.Register(&iprobeMsg{})
	wire.Register(&iprobeRepMsg{})
	wire.Register(&verdictRumor{})
}

// quorum reports the Down quorum: gossipQuorum with a gossip engine,
// else 1.
func (det *Detector) quorum() int {
	if det.cfg.Gossip != nil {
		return gossipQuorum
	}
	return 1
}

// GossipPeers returns the gossip inboxes of every peer this detector
// currently holds Up — the canonical peer source for a gossip engine
// riding the detector's membership view (gossip.Engine.SetPeerSource).
func (det *Detector) GossipPeers() []wire.InboxRef {
	det.mu.Lock()
	defer det.mu.Unlock()
	out := make([]wire.InboxRef, 0, len(det.peers))
	for _, p := range det.peers {
		if p.state == Up {
			out = append(out, gossip.Ref(p.addr))
		}
	}
	return out
}

// launchIndirect asks up to indirectProbes live peers to probe the
// suspected target on this watcher's behalf. Caller must not hold det.mu.
func (det *Detector) launchIndirect(target string, addr netsim.Addr, inc uint64) {
	det.mu.Lock()
	relays := make([]netsim.Addr, 0, indirectProbes)
	for _, q := range det.peers {
		if q.name == target || q.state != Up {
			continue
		}
		relays = append(relays, q.addr)
		if len(relays) == indirectProbes {
			break
		}
	}
	det.mu.Unlock()
	if len(relays) == 0 {
		return
	}
	m := &iprobeMsg{Target: target, Host: addr.Host, Port: addr.Port, Inc: inc, From: det.d.Name()}
	for _, r := range relays {
		_ = det.d.SendDirect(wire.InboxRef{Dapplet: r, Inbox: ControlInbox}, "", m)
	}
}

// spreadVerdict broadcasts a suspicion/down/alive rumor when a gossip
// engine is attached. Caller must not hold det.mu.
func (det *Detector) spreadVerdict(target string, addr netsim.Addr, inc uint64, verdict uint8) {
	if det.cfg.Gossip == nil {
		return
	}
	_ = det.cfg.Gossip.Broadcast(GossipTopic, &verdictRumor{
		Target: target, Host: addr.Host, Port: addr.Port, Inc: inc, Verdict: verdict,
	})
}

// handleIProbe serves a relay's side of an indirect probe: the actual
// probe call runs on a spawned thread (an svc handler runs on the
// receive goroutine and must never wait, least of all on a possibly-dead
// address) and its outcome is cast back to the watcher's "@fail" inbox.
func (det *Detector) handleIProbe(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*iprobeMsg)
	back := wire.InboxRef{Dapplet: c.From(), Inbox: ControlInbox}
	target := m.Target
	addr := netsim.Addr{Host: m.Host, Port: m.Port}
	suspInc := m.Inc
	det.mu.Lock()
	stopping := det.stopping
	det.mu.Unlock()
	if stopping {
		return nil, nil
	}
	det.d.Spawn(func() {
		det.probes.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), 4*det.cfg.Interval) //wwlint:allow ctxcheck detached relay probe outlives the handler reply by design; bounded by 4 intervals
		defer cancel()
		var pr probeRepMsg
		err := det.probeCaller().Call(ctx, wire.InboxRef{Dapplet: addr, Inbox: ControlInbox},
			&probeMsg{From: det.d.Name(), Inc: det.cfg.Incarnation}, &pr)
		rep := &iprobeRepMsg{Target: target, Relay: det.d.Name(), Inc: suspInc}
		if err == nil && pr.Name == target {
			rep.Reachable = true
			rep.Inc = pr.Inc
		}
		_ = det.d.SendDirect(back, "", rep)
	})
	return nil, nil
}

// handleIProbeRep folds a relay's indirect-probe outcome into the
// suspicion: reachable refutes it, unreachable is one more confirmation.
func (det *Detector) handleIProbeRep(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*iprobeRepMsg)
	if m.Reachable {
		det.refuteSuspicion(m.Target, m.Inc)
	} else {
		det.confirmSuspicion(m.Target, m.Relay, m.Inc)
	}
	return nil, nil
}

// refuteSuspicion lifts a Suspect verdict on evidence that the target's
// suspected (or a newer) incarnation is alive — a relay reached it, or
// an alive rumor arrived. Down is deliberately not lifted here: only a
// direct beacon proves the channel to *this* watcher works again.
func (det *Detector) refuteSuspicion(name string, inc uint64) {
	det.mu.Lock()
	p, ok := det.peers[name]
	if !ok || p.state != Suspect || inc < p.suspInc {
		det.mu.Unlock()
		return
	}
	p.lastBeacon = time.Now()
	det.liftLocked(p)
}

// confirmSuspicion records one more distinct confirmer of the current
// suspicion and escalates to Down when both the detection window and the
// quorum are met (the timer-driven recheck in firePeer covers the other
// arrival order).
func (det *Detector) confirmSuspicion(name, confirmer string, inc uint64) {
	det.mu.Lock()
	p, ok := det.peers[name]
	if !ok || p.state != Suspect || p.confirms == nil || inc < p.suspInc {
		det.mu.Unlock()
		return
	}
	p.confirms[confirmer] = true
	if _, resting := det.windowLeft(p, time.Now()); len(p.confirms) < det.quorum() || resting {
		det.mu.Unlock()
		return
	}
	p.state = Down
	p.confirms = nil
	det.armLocked(p, det.cfg.Interval) // switch to probe pacing
	ev := Event{Peer: p.name, Addr: p.addr, State: Down, Incarnation: p.lastInc}
	addr, suspInc := p.addr, p.suspInc
	det.postLocked(func() {
		det.emit(ev)
		det.spreadVerdict(name, addr, suspInc, rumorDown)
	})
}

// onVerdictRumor is the detector's gossip handler, run on the goroutine
// delivering the rumour: suspicions about this dapplet are answered with
// an alive refutation; suspicions about a peer this watcher already
// suspects count the origin toward the quorum; alive rumors refute.
func (det *Detector) onVerdictRumor(origin string, body wire.Msg) {
	m, ok := body.(*verdictRumor)
	if !ok {
		return
	}
	switch m.Verdict {
	case rumorAlive:
		det.refuteSuspicion(m.Target, m.Inc)
	case rumorSuspect, rumorDown:
		if m.Target == det.d.Name() {
			// Someone suspects this very incarnation: shout back. A rumor
			// about an older incarnation of this name is someone else's
			// stale news and not ours to refute. The refutation waits for
			// each peer's window, so it is posted: this handler runs on
			// the receive goroutine, which reads the acknowledgements.
			if m.Inc <= det.cfg.Incarnation {
				det.mu.Lock()
				det.postLocked(func() {
					det.spreadVerdict(det.d.Name(), det.d.Addr(), det.cfg.Incarnation, rumorAlive)
				})
			}
			return
		}
		det.confirmSuspicion(m.Target, origin, m.Inc)
	}
}
