package failure

import (
	"time"

	"repro/internal/netsim"
)

// The verdict machine: the whole verdict protocol of one detector as a
// pure state machine, driven by the Detector (see doc.go).

// link is what the machine reads of the transport (transport.Reliable):
// when a datagram of frames last arrived from an address, and when a
// frame was last sequenced to it.
type link interface {
	LastHeard(from netsim.Addr) time.Time
	LastSent(to netsim.Addr) time.Time
}

// peer is everything a watcher tracks about one peer.
type peer struct {
	name  string
	addr  netsim.Addr
	state State
	// lastBeacon is when the peer last proved its incarnation alive (or
	// was watched); heard merges it with the transport's record.
	lastBeacon time.Time
	lastInc    uint64
	// lastHB is when the last round that heartbeated the peer had sent
	// it. A frame sequenced to the peer since then, within one interval,
	// suppresses the next heartbeat (piggybacked liveness). It is zero
	// after watch and after a move, and a round always heartbeats such a
	// peer, to announce our incarnation and address on a busy channel.
	lastHB time.Time
	// probing marks an address-learning probe in flight to this (Down)
	// peer, so the slow probe rate cannot pile calls onto a dead address.
	probing bool
	// hbSeq is the round of the peer's last heartbeat. meanIA and devIA
	// smooth the gaps between an Up peer's heartbeats of consecutive
	// rounds, gaps between hearings on an idle channel; a gap across
	// rounds it suppressed is the application's pause, and no sample.
	hbSeq  uint64
	meanIA time.Duration
	devIA  time.Duration
	// confirms collects the distinct confirmers of the current suspicion
	// (this watcher, failed indirect-probe relays, rumour origins);
	// non-nil only while Suspect under a quorum above one.
	confirms map[string]bool
	// suspInc is the incarnation the current suspicion was raised
	// against; confirmations and refutations of older ones are dropped.
	suspInc uint64
}

// verdicts is one detector's verdict machine.
type verdicts struct {
	self     string // this dapplet, the first confirmer of its suspicions
	interval time.Duration
	mult     int
	quorum   int // confirmers a Down needs (see quorum.go)
	peers    map[string]*peer
	byAddr   map[netsim.Addr]*peer
	seq      uint64        // the last round
	beats    []netsim.Addr // the last round's heartbeat targets, reused
}

// effects is what one transition asks its driver to do: move verdict
// timers, probe a Down peer, send the round's heartbeats, and post the
// events, relay requests and rumour, in the order they were made.
type effects struct {
	events  []Event
	arms    []arm
	beats   []netsim.Addr // round: heartbeat targets, for round seq
	seq     uint64
	probe   string // a Down peer to probe at probeAt
	probeAt netsim.Addr
	relays  []netsim.Addr // live peers to ask to probe ask.Target
	ask     *iprobeMsg
	rumor   *verdictRumor
}

// arm moves peer's verdict timer to fire after a delay; an overdue one
// (after < 0) fires at once.
type arm struct {
	peer  string
	after time.Duration
}

func newVerdicts(self string, interval time.Duration, mult, quorum int) *verdicts {
	return &verdicts{
		self: self, interval: interval, mult: mult, quorum: quorum,
		peers:  make(map[string]*peer),
		byAddr: make(map[netsim.Addr]*peer),
	}
}

// watch starts watching name at addr, Up with a fresh window, and
// returns its verdict timer's first delay; for a peer already watched
// it only learns addr and reports false.
func (m *verdicts) watch(now time.Time, name string, addr netsim.Addr) (time.Duration, bool) {
	if p, ok := m.peers[name]; ok {
		m.move(p, addr)
		return 0, false
	}
	p := &peer{name: name, addr: addr, state: Up, lastBeacon: now}
	m.peers[name] = p
	m.byAddr[addr] = p
	return m.timeout(p), true
}

// unwatch forgets name.
func (m *verdicts) unwatch(name string) {
	if p, ok := m.peers[name]; ok {
		delete(m.byAddr, p.addr)
		delete(m.peers, name)
	}
}

// timeout is p's Up->Suspect (and Suspect->Down) window: Multiplier
// times the larger of the interval and the heartbeat rhythm's envelope
// (mean + 4 deviations, TCP-RTO style).
func (m *verdicts) timeout(p *peer) time.Duration {
	return time.Duration(m.mult) * max(m.interval, p.meanIA+4*p.devIA)
}

// heard is when p was last heard from: the later of its last beacon and
// the last datagram of frames the transport took from its address.
func (m *verdicts) heard(p *peer, l link) time.Time {
	if t := l.LastHeard(p.addr); t.After(p.lastBeacon) {
		return t
	}
	return p.lastBeacon
}

// windowLeft reports how long p's verdict can rest at now: the time left
// in its Up or Suspect detection window, or false once that window has
// run out (none is left) or the peer is Down.
func (m *verdicts) windowLeft(p *peer, now time.Time, l link) (time.Duration, bool) {
	window := m.timeout(p)
	if p.state == Suspect {
		window *= 2
	}
	left := window - now.Sub(m.heard(p, l))
	return left, p.state != Down && left > 0
}

// move records that p is now at addr. The next round heartbeats it
// whatever the channel carries, so a peer that knew us at an old
// address learns the new one.
func (m *verdicts) move(p *peer, addr netsim.Addr) {
	if p.addr == addr {
		return
	}
	delete(m.byAddr, p.addr)
	p.addr = addr
	m.byAddr[addr] = p
	p.lastHB = time.Time{}
}

// beacon applies one incarnation-carrying liveness proof — a heartbeat
// of round seq, or (seq 0) an incoming probe or a probe reply — from a
// watched peer: it refreshes the peer's deadline, samples the heartbeat
// rhythm, learns a restarted peer's new address, and lifts Suspect and
// Down verdicts.
func (m *verdicts) beacon(now time.Time, from string, inc, seq uint64, addr netsim.Addr) (fx effects) {
	p, ok := m.peers[from]
	if !ok || inc < p.lastInc {
		// A delayed beacon from a dead incarnation (it can linger in
		// flight after the crash): honouring it would revert the peer's
		// address and falsely lift a Down verdict.
		return fx
	}
	if p.state == Up && p.hbSeq != 0 && seq == p.hbSeq+1 && inc == p.lastInc {
		// TCP-style smoothing: mean gains 1/8 of the error, deviation
		// 1/4 of its magnitude.
		if ia := now.Sub(p.lastBeacon); p.meanIA == 0 {
			p.meanIA = ia
		} else {
			err := ia - p.meanIA
			p.meanIA += err / 8
			p.devIA += (err.Abs() - p.devIA) / 4
		}
	}
	if seq != 0 {
		p.hbSeq = seq
	}
	p.lastBeacon, p.lastInc = now, inc
	m.move(p, addr) // a reincarnated peer announces its new address
	if p.state != Up {
		m.lift(p, &fx)
	}
	return fx
}

// round is one heartbeat round, the machine's only walk over its peers.
// It heartbeats every peer not Down whose channel has been idle for an
// interval (a frame the transport sequenced to it after our last
// heartbeat and within an interval means it is hearing from us anyway;
// our own heartbeat is not such a frame), and every peer it has not
// heartbeated since watch or a move. It lifts every Suspect peer heard
// within a detection time, that is, since the suspicion was raised, so
// a lift comes up to one interval after the frame that earned it.
func (m *verdicts) round(now time.Time, l link) (fx effects) {
	m.seq++
	m.beats = m.beats[:0]
	for _, p := range m.peers {
		switch p.state {
		case Down:
			continue // Down peers get the slow probe instead (see expire)
		case Suspect:
			if now.Sub(m.heard(p, l)) < m.timeout(p) {
				m.lift(p, &fx)
			}
		}
		last := l.LastSent(p.addr)
		if p.lastHB.IsZero() || !last.After(p.lastHB) || now.Sub(last) >= m.interval {
			m.beats = append(m.beats, p.addr)
		}
	}
	fx.beats, fx.seq = m.beats, m.seq
	return fx
}

// heartbeated records that the last round's heartbeats had all been
// sent by now, so no frame the transport sequenced up to then is traffic.
func (m *verdicts) heartbeated(now time.Time) {
	for _, a := range m.beats {
		if p, ok := m.byAddr[a]; ok {
			p.lastHB = now
		}
	}
}

// expire runs when name's verdict timer fires: the peer's detection
// window may have run out. Hearing the peer never moves the timer, so
// one that fires early re-arms for the rest of the window. Escalations
// make Suspect, then Down; a Down peer's timer paces the address-learning
// probe at 1/8 the heartbeat rate — enough for two detectors that
// declared each other Down across a healed partition to rediscover one
// another, without a dead peer's retransmission state growing at full
// heartbeat rate.
func (m *verdicts) expire(now time.Time, name string, l link) (fx effects) {
	p, ok := m.peers[name]
	if !ok {
		return fx
	}
	left, resting := m.windowLeft(p, now, l)
	switch {
	case resting: // heard since the timer was set
	case p.state == Up:
		p.state, p.suspInc = Suspect, p.lastInc
		fx.event(p)
		if m.quorum > 1 {
			// This watcher is the suspicion's first confirmer; the rest
			// must come from relays or rumours before Down.
			p.confirms = map[string]bool{m.self: true}
			m.askRelays(p, &fx)
			fx.rumor = p.rumor(rumorSuspect)
		}
		left, _ = m.windowLeft(p, now, l)
	case p.state == Suspect && m.quorum > 1 && len(p.confirms) < m.quorum:
		// Window expired but the quorum has not: hold at Suspect (a
		// partitioned watcher holds here forever), nudge the relays
		// again in case their outcomes were lost, and recheck.
		m.askRelays(p, &fx)
		left = m.timeout(p)
	case p.state == Suspect:
		m.down(p, &fx)
		return fx
	default: // Down
		if !p.probing {
			p.probing = true
			fx.probe, fx.probeAt = name, p.addr
		}
		left = 8 * m.interval
	}
	fx.arms = append(fx.arms, arm{name, left})
	return fx
}

// probed records that the probe to name has come back (or failed).
func (m *verdicts) probed(name string) {
	if p, ok := m.peers[name]; ok {
		p.probing = false
	}
}

// confirm records one more distinct confirmer of name's current
// suspicion — a relay whose indirect probe failed, or a rumour origin
// suspecting the same incarnation — and makes it Down once both the
// detection window and the quorum are met (expire covers the other
// arrival order).
func (m *verdicts) confirm(now time.Time, name, confirmer string, inc uint64, l link) (fx effects) {
	p, ok := m.peers[name]
	if !ok || p.state != Suspect || p.confirms == nil || inc < p.suspInc {
		return fx
	}
	p.confirms[confirmer] = true
	if _, resting := m.windowLeft(p, now, l); len(p.confirms) >= m.quorum && !resting {
		m.down(p, &fx)
	}
	return fx
}

// refute lifts a Suspect verdict on evidence that the target's
// suspected (or a newer) incarnation is alive — a relay reached it, or
// an alive rumour arrived. Down is deliberately not lifted here: only a
// direct beacon proves the channel to this watcher works again.
func (m *verdicts) refute(now time.Time, name string, inc uint64) (fx effects) {
	if p, ok := m.peers[name]; ok && p.state == Suspect && inc >= p.suspInc {
		p.lastBeacon = now
		m.lift(p, &fx)
	}
	return fx
}

// lift returns p to Up with a fresh detection window.
func (m *verdicts) lift(p *peer, fx *effects) {
	p.state, p.confirms = Up, nil
	p.meanIA, p.devIA = 0, 0 // a gap spanning the outage is no rhythm sample
	fx.event(p)
	fx.arms = append(fx.arms, arm{p.name, m.timeout(p)})
}

// down commits p's Down verdict; its timer switches to probe pacing,
// the first probe following promptly.
func (m *verdicts) down(p *peer, fx *effects) {
	p.state, p.confirms = Down, nil
	fx.event(p)
	if m.quorum > 1 {
		fx.rumor = p.rumor(rumorDown)
	}
	fx.arms = append(fx.arms, arm{p.name, m.interval})
}

// askRelays asks up to indirectProbes live peers to probe the suspected
// p on this watcher's behalf.
func (m *verdicts) askRelays(p *peer, fx *effects) {
	for _, q := range m.peers {
		if len(fx.relays) == indirectProbes {
			break
		}
		if q != p && q.state == Up {
			fx.relays = append(fx.relays, q.addr)
		}
	}
	if fx.relays != nil {
		fx.ask = &iprobeMsg{Target: p.name, Host: p.addr.Host, Port: p.addr.Port, Inc: p.suspInc, From: m.self}
	}
}

// event records p's new verdict.
func (fx *effects) event(p *peer) {
	fx.events = append(fx.events, Event{Peer: p.name, Addr: p.addr, State: p.state, Incarnation: p.lastInc})
}

// rumor is the rumour spreading verdict about p's suspected incarnation.
func (p *peer) rumor(verdict uint8) *verdictRumor {
	return &verdictRumor{Target: p.name, Host: p.addr.Host, Port: p.addr.Port, Inc: p.suspInc, Verdict: verdict}
}
