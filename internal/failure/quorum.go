package failure

import (
	"context"
	"time"

	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/wire"
)

// Verdict quorums: with Config.Gossip set, Down needs gossipQuorum
// distinct confirmers as well as the detection window: this watcher,
// relays whose indirect probes failed (SWIM's indirect probe: a relay on
// another network path can often reach a peer the watcher cannot), and
// gossip origins suspecting the same incarnation. A watcher cut off by a
// partition stays at Suspect, since its relays answer "reachable", which
// refutes the suspicion. A peer that hears itself suspected announces
// its incarnation in an alive rumour, which lifts Suspect but never
// Down: only a direct incarnation-carrying beacon lifts Down, so a stale
// rumour cannot resurrect a dead peer. The rules are the verdict
// machine's (verdict.go); this file holds their messages and handlers.

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

// GossipPeers returns the gossip inboxes of every peer this detector
// currently holds Up — the canonical peer source for a gossip engine
// riding the detector's membership view (gossip.Engine.SetPeerSource).
func (det *Detector) GossipPeers() []wire.InboxRef {
	det.mu.Lock()
	defer det.mu.Unlock()
	out := make([]wire.InboxRef, 0, len(det.m.peers))
	for _, p := range det.m.peers {
		if p.state == Up {
			out = append(out, gossip.Ref(p.addr))
		}
	}
	return out
}

// handleIProbe serves a relay's side of an indirect probe: the actual
// probe call runs on a spawned thread (an svc handler runs on the
// receive goroutine and must never wait, least of all on a possibly-dead
// address) and its outcome is cast back to the watcher's "@fail" inbox.
func (det *Detector) handleIProbe(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*iprobeMsg)
	back := wire.InboxRef{Dapplet: c.From(), Inbox: ControlInbox}
	addr := netsim.Addr{Host: m.Host, Port: m.Port}
	rep := &iprobeRepMsg{Target: m.Target, Relay: det.d.Name(), Inc: m.Inc}
	det.mu.Lock() // spawned under det.mu, as settleLocked spawns probes
	defer det.mu.Unlock()
	if det.stopping {
		return nil, nil
	}
	det.d.Spawn(func() {
		det.probes.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), 4*det.cfg.Interval) //wwlint:allow ctxcheck detached relay probe outlives the handler reply by design; bounded by 4 intervals
		defer cancel()
		var pr probeRepMsg
		err := det.probeCaller().Call(ctx, wire.InboxRef{Dapplet: addr, Inbox: ControlInbox},
			&probeMsg{From: det.d.Name(), Inc: det.cfg.Incarnation}, &pr)
		if err == nil && pr.Name == rep.Target {
			rep.Reachable, rep.Inc = true, pr.Inc
		}
		_ = det.d.SendDirect(back, "", rep)
	})
	return nil, nil
}

// handleIProbeRep folds a relay's indirect-probe outcome into the
// suspicion: reachable refutes it, unreachable is one more confirmation.
func (det *Detector) handleIProbeRep(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*iprobeRepMsg)
	det.step(func(now time.Time) effects {
		if m.Reachable {
			return det.m.refute(now, m.Target, m.Inc)
		}
		return det.m.confirm(now, m.Target, m.Relay, m.Inc, det.d.Transport())
	})
	return nil, nil
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
	det.step(func(now time.Time) effects {
		switch {
		case m.Verdict == rumorAlive:
			return det.m.refute(now, m.Target, m.Inc)
		case m.Target != det.d.Name():
			return det.m.confirm(now, m.Target, origin, m.Inc, det.d.Transport())
		case m.Inc <= det.cfg.Incarnation:
			// Someone suspects this very incarnation: shout back. A rumor
			// about an older incarnation of this name is someone else's
			// stale news and not ours to refute. The refutation waits for
			// each peer's window, so it is posted: this handler runs on
			// the receive goroutine, which reads the acknowledgements.
			a := det.d.Addr()
			return effects{rumor: &verdictRumor{Target: m.Target, Host: a.Host, Port: a.Port, Inc: det.cfg.Incarnation, Verdict: rumorAlive}}
		}
		return effects{}
	})
}
