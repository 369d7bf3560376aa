package failure

import (
	"context"
	"time"

	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/wire"
)

// Verdict quorums: with Config.Gossip set, Down needs gossipQuorum
// distinct confirmers as well as the detection window: this watcher,
// relays whose indirect probes failed (SWIM's indirect probe: a relay on
// another network path can often reach a peer the watcher cannot), and
// rumour origins suspecting the same incarnation. A watcher cut off by a
// partition stays at Suspect, since its relays answer "reachable", which
// refutes the suspicion. A peer that hears itself suspected announces
// its incarnation in an alive rumour, which lifts Suspect but never
// Down: only a direct incarnation-carrying beacon lifts Down, so a stale
// rumour cannot resurrect a dead peer. The rules are the verdict
// machine's (verdict.go); this file holds their messages and handlers.
//
// Rumours spread epidemically on "@fail": each carries its origin's
// (name, sequence) identity and a hop budget, every detector hands a new
// one to its verdict machine once and forwards it to rumorFanout random
// peers until the budget is spent. The peers are the detector's live
// watched peers or, for a directory replica's detector, the replica's
// shard siblings (BindDirectory).

// indirectProbes is how many live peers are asked to probe a freshly
// suspected peer on a watcher's behalf when its quorum is above one.
const indirectProbes = 2

// gossipQuorum is the Down quorum of a detector with Config.Gossip.
const gossipQuorum = 2

// rumorFanout is how many random peers an originated or forwarded rumour
// is sent to.
const rumorFanout = 3

// rumorTTL is a fresh rumour's hop budget; each forwarding detector
// decrements it and one arriving with zero is heard but not forwarded.
const rumorTTL = 3

// rumorWindow bounds the remembered rumour identities; beyond it the
// oldest are forgotten first.
const rumorWindow = 4096

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

// verdictRumor is one failure opinion spread epidemically: a suspicion
// or down verdict about Target's incarnation, or an alive refutation
// (usually from the target itself). Origin and Seq are its identity for
// duplicate suppression; TTL is the hops it may still travel. It travels
// bare (one-way) on the "@fail" inbox.
type verdictRumor struct {
	Target  string
	Host    string
	Port    uint16
	Inc     uint64
	Verdict uint8
	Origin  string
	Seq     uint64
	TTL     uint8
}

// Kind implements wire.Msg.
func (*verdictRumor) Kind() string { return "fail.rumor" }

// AppendBinary implements wire.Msg.
func (m *verdictRumor) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Target)
	dst = wire.AppendString(dst, m.Host)
	dst = wire.AppendUvarint(dst, uint64(m.Port))
	dst = wire.AppendUvarint(dst, m.Inc)
	dst = wire.AppendUvarint(dst, uint64(m.Verdict))
	dst = wire.AppendString(dst, m.Origin)
	dst = wire.AppendUvarint(dst, m.Seq)
	return wire.AppendUvarint(dst, uint64(m.TTL)), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *verdictRumor) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Target = r.String()
	m.Host = r.String()
	m.Port = r.Port()
	m.Inc = r.Uvarint()
	m.Verdict = uint8(r.Uvarint())
	m.Origin = r.String()
	m.Seq = r.Uvarint()
	m.TTL = uint8(r.Uvarint())
	return r.Done()
}

func init() {
	wire.Register(&iprobeMsg{})
	wire.Register(&iprobeRepMsg{})
	wire.Register(&verdictRumor{})
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

// rumorKey is a rumour's identity for duplicate suppression.
type rumorKey struct {
	origin string
	seq    uint64
}

// handleRumor serves one arriving rumour on the receive goroutine: a new
// one is fed to the verdict machine and then, while it has hops left,
// forwarded without waiting for a window to rumorFanout peers other than
// the hop it came from. Suspicions about this dapplet are answered
// with an alive refutation; suspicions about a peer this watcher already
// suspects count the origin toward the quorum; alive rumours refute.
func (det *Detector) handleRumor(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := *req.(*verdictRumor)
	det.mu.Lock()
	fresh := det.rememberLocked(rumorKey{m.Origin, m.Seq})
	det.mu.Unlock()
	if !fresh {
		det.rumorsDup.Add(1)
		return nil, nil
	}
	det.rumorsRecv.Add(1)
	det.step(func(now time.Time) effects {
		switch {
		case m.Verdict == rumorAlive:
			return det.m.refute(now, m.Target, m.Inc)
		case m.Target != det.d.Name():
			return det.m.confirm(now, m.Target, m.Origin, m.Inc, det.d.Transport())
		case m.Inc <= det.cfg.Incarnation:
			// Someone suspects this very incarnation: shout back. A rumour
			// about an older incarnation of this name is someone else's
			// stale news and not ours to refute. The refutation waits for
			// each peer's window, so it is posted: this handler runs on
			// the receive goroutine, which reads the acknowledgements.
			a := det.d.Addr()
			return effects{rumor: &verdictRumor{Target: m.Target, Host: a.Host, Port: a.Port, Inc: det.cfg.Incarnation, Verdict: rumorAlive}}
		}
		return effects{}
	})
	if m.TTL == 0 {
		return nil, nil
	}
	det.mu.Lock()
	to := det.sampleLocked(c.From())
	det.mu.Unlock()
	m.TTL--
	for _, a := range to {
		det.sendRumor(a, &m)
	}
	return nil, nil
}

// spread originates r, a rumour the verdict machine made, from a posted
// drain: it goes to rumorFanout peers with a fresh hop budget, each
// after its window opens, as an outbox send waits.
func (det *Detector) spread(r *verdictRumor) {
	det.mu.Lock()
	det.rumorSeq++
	r.Origin, r.Seq, r.TTL = det.d.Name(), det.rumorSeq, rumorTTL
	det.rememberLocked(rumorKey{r.Origin, r.Seq})
	to := det.sampleLocked(netsim.Addr{})
	det.mu.Unlock()
	for _, a := range to {
		if det.d.Transport().AwaitWindow(a) == nil {
			det.sendRumor(a, r)
		}
	}
}

// sendRumor sends one rumour to one peer's "@fail" inbox, counting it,
// without waiting.
func (det *Detector) sendRumor(to netsim.Addr, r *verdictRumor) {
	if det.d.SendDirect(wire.InboxRef{Dapplet: to, Inbox: ControlInbox}, "", r) == nil {
		det.rumorsSent.Add(1)
	}
}

// sampleLocked draws up to rumorFanout distinct rumour targets other
// than this dapplet and the hop a rumour arrived from: the replica's
// shard siblings for a detector bound to a directory replica, else the
// peers this detector holds Up; none once detach has begun. Caller
// holds det.mu.
func (det *Detector) sampleLocked(except netsim.Addr) []netsim.Addr {
	if det.stopping {
		return nil
	}
	self := det.d.Addr()
	var cand []netsim.Addr
	if det.replica != nil {
		for _, r := range det.replica.Siblings() {
			if r.Dapplet != except {
				cand = append(cand, r.Dapplet)
			}
		}
	} else {
		for _, p := range det.m.peers {
			if p.state == Up && p.addr != self && p.addr != except {
				cand = append(cand, p.addr)
			}
		}
	}
	if len(cand) <= rumorFanout {
		return cand
	}
	// Partial Fisher-Yates under the detector's own seeded rng.
	for i := 0; i < rumorFanout; i++ {
		j := i + det.rng.IntN(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	return cand[:rumorFanout]
}

// rememberLocked records a rumour identity, reporting false if it was
// already known; beyond rumorWindow identities the oldest is forgotten.
// Caller holds det.mu.
func (det *Detector) rememberLocked(k rumorKey) bool {
	if _, dup := det.seen[k]; dup {
		return false
	}
	det.seen[k] = struct{}{}
	det.seenQ = append(det.seenQ, k)
	if len(det.seenQ) > rumorWindow {
		delete(det.seen, det.seenQ[0])
		det.seenQ = det.seenQ[1:]
	}
	return true
}
