package failure

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/wire"
)

// ControlInbox is the well-known inbox name heartbeat traffic arrives on;
// like "@session" and "@snap" it is a service inbox, invisible to
// application code and to snapshot channel recording.
const ControlInbox = "@fail"

// State is a watcher's verdict about one peer.
type State uint8

// Peer liveness states, in escalation order.
const (
	// Up means heartbeats are arriving within the detection time.
	Up State = iota
	// Suspect means one detection time has passed without a heartbeat;
	// the peer may be dead, slow, or cut off.
	Suspect
	// Down means a second detection time has passed: the watcher commits
	// to the verdict and stops heartbeating the peer until it is heard
	// from again.
	Down
)

// String returns the conventional lower-case state name.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// Event is one state transition for a watched peer.
type Event struct {
	// Peer is the watched dapplet's instance name.
	Peer string
	// Addr is the peer's last known address.
	Addr netsim.Addr
	// State is the new verdict.
	State State
	// Incarnation is the peer's incarnation number from its most recent
	// heartbeat; a jump between two Up events means the peer restarted.
	Incarnation uint64
}

// Config tunes a detector. Zero values select defaults.
type Config struct {
	// Interval is the heartbeat transmission period (default 50ms). It
	// is also the floor of the detection timeout.
	Interval time.Duration
	// Multiplier is the number of missed intervals that makes a peer
	// Suspect; a further Multiplier intervals make it Down (default 3,
	// the conventional BFD detect multiplier).
	Multiplier int
	// Incarnation identifies this instance's lifetime; a restarted
	// dapplet attaches a detector with a higher incarnation so watchers
	// can tell recovery from restart (core.Runtime.Incarnation supplies
	// one).
	Incarnation uint64
	// Quorum is the number of distinct confirmers — this watcher, relays
	// whose indirect probes failed, gossip origins suspecting the same
	// incarnation — required before a Suspect verdict escalates to Down
	// (default 2 with Gossip set, else 1: this watcher's clock alone, the
	// pre-quorum behavior). With a quorum above one, a watcher
	// partitioned away from a live peer stays at Suspect forever instead
	// of committing a false Down (see quorum.go).
	Quorum int
	// Gossip, when set, spreads suspicions, Down verdicts and alive
	// refutations as rumors on the engine's "fail" topic, and counts
	// other origins' suspicions toward this watcher's quorum.
	Gossip *gossip.Engine
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Multiplier <= 0 {
		c.Multiplier = 3
	}
	if c.Quorum <= 0 {
		c.Quorum = 1
		if c.Gossip != nil {
			c.Quorum = 2
		}
	}
	return c
}

// heartbeatMsg is the periodic liveness beacon.
type heartbeatMsg struct {
	From string
	Seq  uint64
	Inc  uint64
}

// Kind implements wire.Msg.
func (*heartbeatMsg) Kind() string { return "fail.hb" }

// AppendBinary implements wire.Msg.
func (m *heartbeatMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.From)
	dst = wire.AppendUvarint(dst, m.Seq)
	return wire.AppendUvarint(dst, m.Inc), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *heartbeatMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.From = r.String()
	m.Seq = r.Uvarint()
	m.Inc = r.Uvarint()
	return r.Done()
}

// probeMsg is the address-learning probe a watcher sends (through svc,
// with a correlation id and reply inbox) to a peer it holds Down: unlike
// the one-way heartbeat, the pair proves the channel alive in both
// directions in one exchange, without requiring the peer to watch back.
type probeMsg struct {
	From string
	Inc  uint64
}

// Kind implements wire.Msg.
func (*probeMsg) Kind() string { return "fail.probe" }

// AppendBinary implements wire.Msg.
func (m *probeMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.From)
	return wire.AppendUvarint(dst, m.Inc), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *probeMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.From = r.String()
	m.Inc = r.Uvarint()
	return r.Done()
}

// probeRepMsg answers a probe with the answering dapplet's identity and
// incarnation, which is what lifts the prober's Down verdict (only an
// incarnation number distinguishes a recovered peer from a dead
// incarnation's lingering frames).
type probeRepMsg struct {
	Name string
	Inc  uint64
}

// Kind implements wire.Msg.
func (*probeRepMsg) Kind() string { return "fail.probe-rep" }

// AppendBinary implements wire.Msg.
func (m *probeRepMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Name)
	return wire.AppendUvarint(dst, m.Inc), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *probeRepMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	m.Inc = r.Uvarint()
	return r.Done()
}

func init() {
	wire.Register(&heartbeatMsg{})
	wire.Register(&probeMsg{})
	wire.Register(&probeRepMsg{})
}

// peerState is everything a watcher tracks about one peer.
type peerState struct {
	name      string
	addr      netsim.Addr
	state     State
	lastHeard time.Time
	lastInc   uint64
	// lastHB is when the last round that sent the peer an explicit
	// heartbeat had sent it. A frame the transport sequenced to the peer
	// since then, and within one interval, means the peer is hearing
	// from us anyway, so the next heartbeat is suppressed (piggybacked
	// liveness). Suppression is floored at one heartbeat per 8
	// intervals: only a heartbeat's incarnation number can lift a Down
	// verdict the peer holds against us, so a busy channel must not
	// starve them forever.
	lastHB time.Time
	// probing marks an address-learning probe in flight to this (Down)
	// peer, so the slow probe rate cannot pile calls onto a dead address.
	probing bool
	// heard marks that a beacon has arrived since Watch. Interarrivals
	// are sampled from one beacon to the next, never from the Watch
	// call, whose phase against the peer's heartbeat rounds is arbitrary.
	heard bool
	// meanIA/devIA are the smoothed interarrival estimators feeding the
	// adaptive timeout; zero until two heartbeats have been observed.
	meanIA time.Duration
	devIA  time.Duration
	// timer is this peer's verdict timer, moved with Reset under det.mu:
	// it fires when the peer's verdict may need to advance (lazily
	// re-armed from lastHeard, so a beacon never has to move it) and,
	// once the peer is Down, paces the slow probe cadence.
	timer *time.Timer
	// confirms collects the distinct confirmers of the current suspicion
	// (this watcher, failed indirect-probe relays, gossip origins);
	// non-nil only while Suspect under a quorum above one.
	confirms map[string]bool
	// suspInc is the incarnation the current suspicion was raised
	// against; confirmations and refutations about older incarnations
	// are discarded.
	suspInc uint64
}

// windowLeft reports how long p's verdict can rest at now: the time left
// in its Up or Suspect detection window, or false once that window has
// run out or the peer is Down.
func (p *peerState) windowLeft(cfg Config, now time.Time) (time.Duration, bool) {
	timeout := p.detectionTimeout(cfg)
	elapsed := now.Sub(p.lastHeard)
	switch {
	case p.state == Up && elapsed <= timeout:
		return timeout - elapsed, true
	case p.state == Suspect && elapsed <= 2*timeout:
		return 2*timeout - elapsed, true
	}
	return 0, false
}

// detectionTimeout is the Up->Suspect (and Suspect->Down) window for this
// peer: Multiplier times the larger of the configured interval and the
// observed interarrival envelope (mean + 4 deviations, TCP-RTO style).
func (p *peerState) detectionTimeout(cfg Config) time.Duration {
	base := cfg.Interval
	if adaptive := p.meanIA + 4*p.devIA; adaptive > base {
		base = adaptive
	}
	return time.Duration(cfg.Multiplier) * base
}

// Detector heartbeats the peers watching this dapplet and watches peers
// in return. All methods are safe for concurrent use.
type Detector struct {
	d   *core.Dapplet
	cfg Config

	// hb is the detector's heartbeat-round timer, firing once per
	// Interval and moved with Reset under mu; hbDue is when its next
	// round is due. wg counts the timer callbacks enter admitted, so
	// detach can wait them out.
	hb    *time.Timer
	hbDue time.Time
	wg    sync.WaitGroup

	// callerOnce creates the probe svc.Caller lazily: a detector that
	// never holds a peer Down never pays the caller's reply inbox.
	callerOnce sync.Once
	caller     *svc.Caller

	mu       sync.Mutex
	peers    map[string]*peerState
	byAddr   map[netsim.Addr]*peerState
	seq      uint64
	obs      []func(Event)
	stopping bool
	// posted is the work of verdict changes not yet done, in the order
	// made; posting marks a goroutine doing it (see postLocked).
	posted  []func()
	posting bool
	// scratchHB is the heartbeat round's reused target buffer, so the
	// per-Interval fan-out does not allocate a fresh slice each round.
	scratchHB []wire.InboxRef

	hbSent   atomic.Uint64
	implicit atomic.Uint64
	probes   atomic.Uint64
}

// Stats counts a detector's transmitted heartbeats and the application
// frames it accepted as implicit liveness in their place.
type Stats struct {
	// HeartbeatsSent is the number of explicit heartbeat transmissions.
	HeartbeatsSent uint64
	// ImplicitRefreshes is the number of application/ack frames from
	// watched peers that refreshed liveness instead of a heartbeat.
	ImplicitRefreshes uint64
	// ProbesSent is the number of address-learning probes issued to Down
	// peers (the svc request/reply that rediscovers a healed partition).
	ProbesSent uint64
}

// Attach equips a dapplet with a failure detector. The detector runs
// its heartbeat rounds and per-peer verdicts on runtime timers, which
// hold no goroutine while they wait, and detaches when the dapplet
// stops. Any frame the dapplet exchanges with a watched peer doubles as
// liveness evidence: a received frame refreshes the peer's deadline, and
// a frame the transport sends the peer (Reliable.LastSent) suppresses
// the next explicit heartbeat to it, so heartbeats flow only on idle
// channels. The "@fail" inbox is an svc-served inbox: heartbeats arrive
// bare (one-way), and address-learning probes arrive correlated and are
// answered with this instance's name and incarnation.
func Attach(d *core.Dapplet, cfg Config) *Detector {
	det := &Detector{
		d:      d,
		cfg:    cfg.withDefaults(),
		peers:  make(map[string]*peerState),
		byAddr: make(map[netsim.Addr]*peerState),
	}
	svc.Serve(d, ControlInbox, svc.Handlers{
		"fail.hb": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			hb := req.(*heartbeatMsg)
			det.applyBeacon(hb.From, hb.Inc, c.From())
			return nil, nil
		},
		"fail.probe": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			// A probe is itself liveness evidence, incarnation included:
			// if we hold the prober Down across a healed partition, this
			// lifts our verdict while the reply lifts theirs.
			p := req.(*probeMsg)
			det.applyBeacon(p.From, p.Inc, c.From())
			return &probeRepMsg{Name: d.Name(), Inc: det.cfg.Incarnation}, nil
		},
		"fail.iprobe":     det.handleIProbe,
		"fail.iprobe-rep": det.handleIProbeRep,
	})
	if det.cfg.Gossip != nil {
		det.cfg.Gossip.OnRumor(GossipTopic, det.onVerdictRumor)
	}
	d.OnRecv(det.onAppRecv)
	// Stagger the first round within a quarter interval so detectors
	// attached together do not all fan out at the same instant.
	first := det.cfg.Interval + hbStagger(d.Name(), det.cfg.Interval/4)
	det.mu.Lock()
	det.hbDue = time.Now().Add(first)
	round := det.fireHeartbeats
	det.hb = time.AfterFunc(first, func() { work.run(round) })
	det.mu.Unlock()
	d.OnStop(det.detach)
	return det
}

// hbStagger derives a deterministic per-detector phase offset in [0, m).
func hbStagger(name string, m time.Duration) time.Duration {
	if m <= 0 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return time.Duration(h % uint64(m))
}

// probeCaller returns the detector's svc caller, creating it on first
// use (the first probe to a Down peer).
func (det *Detector) probeCaller() *svc.Caller {
	det.callerOnce.Do(func() { det.caller = svc.NewCaller(det.d) })
	return det.caller
}

// detach runs when the dapplet stops: it stops every timer and waits
// for the callbacks enter already admitted. Timers are re-armed only
// under mu while !stopping, so none is armed again once detach has set
// it, and no callback runs after detach returns.
func (det *Detector) detach() {
	det.mu.Lock()
	det.stopping = true
	det.hb.Stop()
	for _, p := range det.peers {
		p.timer.Stop()
	}
	det.mu.Unlock()
	det.wg.Wait()
}

// enter admits one timer callback: it refuses once detach has begun, and
// otherwise counts the callback in wg before detach can wait on it. An
// admitted caller must call det.wg.Done.
func (det *Detector) enter() bool {
	det.mu.Lock()
	defer det.mu.Unlock()
	if det.stopping {
		return false
	}
	det.wg.Add(1)
	return true
}

// armLocked moves p's verdict timer to fire d from now, unless detach
// has begun. Caller holds det.mu.
func (det *Detector) armLocked(p *peerState, d time.Duration) {
	if !det.stopping {
		p.timer.Reset(d)
	}
}

// Stats returns the detector's heartbeat-economy counters.
func (det *Detector) Stats() Stats {
	return Stats{
		HeartbeatsSent:    det.hbSent.Load(),
		ImplicitRefreshes: det.implicit.Load(),
		ProbesSent:        det.probes.Load(),
	}
}

// Interval returns the configured heartbeat period.
func (det *Detector) Interval() time.Duration { return det.cfg.Interval }

// Watched returns the number of peers currently watched.
func (det *Detector) Watched() int {
	det.mu.Lock()
	defer det.mu.Unlock()
	return len(det.peers)
}

// Watch starts heartbeating and monitoring the named peer. The peer
// starts Up with a fresh grace window, so watching a live peer does not
// produce a spurious Suspect. Detection is bidirectional, as in BFD:
// a detector only transmits heartbeats to peers it watches, so both
// ends of a channel must watch each other for either to be monitored.
func (det *Detector) Watch(name string, addr netsim.Addr) {
	det.mu.Lock()
	defer det.mu.Unlock()
	if p, ok := det.peers[name]; ok {
		if p.addr != addr {
			delete(det.byAddr, p.addr)
			p.addr = addr
			det.byAddr[addr] = p
		}
		return
	}
	p := &peerState{name: name, addr: addr, state: Up, lastHeard: time.Now()}
	check := func() { det.firePeer(p) }
	p.timer = time.AfterFunc(p.detectionTimeout(det.cfg), func() { work.run(check) })
	if det.stopping {
		p.timer.Stop() // detach has stopped every other timer already
	}
	det.peers[name] = p
	det.byAddr[addr] = p
}

// Unwatch stops heartbeating and monitoring the named peer.
func (det *Detector) Unwatch(name string) {
	det.mu.Lock()
	defer det.mu.Unlock()
	if p, ok := det.peers[name]; ok {
		delete(det.byAddr, p.addr)
		delete(det.peers, name)
		p.timer.Stop()
	}
}

// Status returns the current verdict for a watched peer.
func (det *Detector) Status(name string) (State, bool) {
	det.mu.Lock()
	defer det.mu.Unlock()
	p, ok := det.peers[name]
	if !ok {
		return Up, false
	}
	return p.state, true
}

// Addr returns the last known address of a watched peer, which tracks
// restarts (a heartbeat from a reincarnated peer updates it).
func (det *Detector) Addr(name string) (netsim.Addr, bool) {
	det.mu.Lock()
	defer det.mu.Unlock()
	p, ok := det.peers[name]
	if !ok {
		return netsim.Addr{}, false
	}
	return p.addr, true
}

// OnEvent registers an observer for verdict changes. Observers see one
// event at a time, in the order the verdicts changed, on a detector work
// goroutine. A slow observer delays later events and holds that
// goroutine, never verdicts, and heartbeats go on on another.
func (det *Detector) OnEvent(f func(Event)) {
	det.mu.Lock()
	det.obs = append(det.obs, f)
	det.mu.Unlock()
}

// emit delivers ev to every observer. Caller must not hold det.mu.
func (det *Detector) emit(ev Event) {
	det.mu.Lock()
	obs := det.obs
	det.mu.Unlock()
	for _, f := range obs {
		f(ev)
	}
}

// postLocked queues f, the work (observer delivery, rumours, relay
// probes) of a verdict change just made under det.mu, or a refutation,
// for drainPosted on the work queue: changes reach observers in the
// order made, no change waits for an observer, and the receive
// goroutine, which lifts Suspect and hears rumours, never waits for a
// rumour's window. Caller holds det.mu; postLocked releases it.
//
//wwlint:handoff f runs on the work queue, where a rumour may wait for its window
func (det *Detector) postLocked(f func()) {
	det.posted = append(det.posted, f)
	start := !det.posting
	det.posting = true
	det.mu.Unlock()
	if start {
		work.run(det.drainPosted)
	}
}

// drainPosted does posted work, in order, until none is left.
func (det *Detector) drainPosted() {
	if !det.enter() {
		return
	}
	defer det.wg.Done()
	det.mu.Lock()
	for len(det.posted) > 0 {
		f := det.posted[0]
		det.posted = det.posted[1:]
		det.mu.Unlock()
		f()
		det.mu.Lock()
	}
	det.posted, det.posting = nil, false
	det.mu.Unlock()
}

// liftLocked returns p to Up with a fresh detection window and posts the
// Up event. Caller holds det.mu; liftLocked releases it.
func (det *Detector) liftLocked(p *peerState) {
	p.state = Up
	p.confirms = nil
	p.meanIA, p.devIA = 0, 0 // an interarrival spanning the gap is no rhythm sample
	det.armLocked(p, p.detectionTimeout(det.cfg))
	ev := Event{Peer: p.name, Addr: p.addr, State: Up, Incarnation: p.lastInc}
	det.postLocked(func() { det.emit(ev) })
}

// applyBeacon processes one incarnation-carrying liveness proof — a
// heartbeat, an incoming probe, or a probe reply — from a watched peer:
// it refreshes the peer's deadline, feeds the interarrival estimators,
// learns a restarted peer's new address, and lifts Suspect/Down verdicts.
func (det *Detector) applyBeacon(from string, inc uint64, addr netsim.Addr) {
	det.mu.Lock()
	p, watched := det.peers[from]
	if !watched || !det.beaconLocked(p, inc, addr, time.Now()) || p.state == Up {
		det.mu.Unlock()
		return
	}
	// The peer's timer was pacing a Suspect escalation or the slow
	// Down-probe cadence; liftLocked re-arms it.
	det.liftLocked(p)
}

// beaconLocked applies one beacon's evidence to p, leaving its verdict
// alone: it feeds the interarrival estimators, refreshes lastHeard and
// learns a restarted peer's new address. It reports false, changing
// nothing, for a beacon from an older incarnation. Caller holds det.mu.
func (det *Detector) beaconLocked(p *peerState, inc uint64, addr netsim.Addr, now time.Time) bool {
	if inc < p.lastInc {
		// A delayed beacon from a dead incarnation (it can linger in
		// flight after the crash): honouring it would revert the peer's
		// address and falsely lift a Down verdict.
		return false
	}
	switch {
	case p.state != Up:
		// Recovery: restart the rhythm estimate from scratch so the
		// outage gap cannot inflate future detection times.
		p.meanIA, p.devIA = 0, 0
	case p.heard:
		// Feed the adaptive timeout only while the rhythm is unbroken;
		// an interarrival spanning an outage is not a rhythm sample.
		if ia := now.Sub(p.lastHeard); p.meanIA == 0 {
			p.meanIA = ia
		} else {
			// TCP-style smoothing: mean gains 1/8 of the error,
			// deviation 1/4 of its magnitude.
			err := ia - p.meanIA
			p.meanIA += err / 8
			if err < 0 {
				err = -err
			}
			p.devIA += (err - p.devIA) / 4
		}
	}
	p.heard = true
	p.lastHeard = now
	p.lastInc = inc
	if p.addr != addr { // a reincarnated peer announces its new address
		delete(det.byAddr, p.addr)
		p.addr = addr
		det.byAddr[p.addr] = p
	}
	return true
}

// onAppRecv treats any received application or service frame from a
// watched peer's current address as implicit liveness: the peer's
// deadline refreshes without a heartbeat, and a Suspect verdict lifts
// (the channel is demonstrably alive). The detector's own "@fail"
// frames are left to their handlers: heartbeats and probes are beacons
// (applyBeacon), and indirect-probe traffic counts through heardFrom.
// Down verdicts lift only via beacons, because only a beacon's
// incarnation number distinguishes a recovered peer from a dead
// incarnation's lingering frames. The interarrival estimators are
// not fed: application traffic has no rhythm to learn.
// It runs on the receive goroutine and lifts Suspect there; the Up event
// is delivered from the work queue.
func (det *Detector) onAppRecv(env *wire.Envelope) {
	if env.To.Inbox == ControlInbox {
		return
	}
	det.heardFrom(env.FromDapplet)
}

// heardFrom is a frame from addr as implicit liveness (see onAppRecv).
// The sender's transport counted the frame toward suppressing its next
// heartbeat (Reliable.LastSent), so every frame it sends a watched peer
// must count here, by this path or as a beacon.
func (det *Detector) heardFrom(addr netsim.Addr) {
	det.mu.Lock()
	p, ok := det.byAddr[addr]
	if !ok || p.state == Down {
		det.mu.Unlock()
		return
	}
	det.implicit.Add(1)
	p.lastHeard = time.Now()
	if p.state == Suspect {
		det.liftLocked(p)
		return
	}
	det.mu.Unlock()
}

// fireHeartbeats runs when the heartbeat-round timer expires: one round,
// then the timer moves to one Interval after this round was due, so the
// timer's wake-up latency does not stretch the period peers learn (after
// a stall longer than an Interval the cadence restarts from now). It is
// re-armed only after the round's sends, so two rounds never overlap.
func (det *Detector) fireHeartbeats() {
	if !det.enter() {
		return
	}
	defer det.wg.Done()
	now := time.Now()
	det.heartbeatRound(now)
	det.mu.Lock()
	if !det.stopping {
		det.hbDue = det.hbDue.Add(det.cfg.Interval)
		if det.hbDue.Before(now) {
			det.hbDue = now.Add(det.cfg.Interval)
		}
		det.hb.Reset(time.Until(det.hbDue))
	}
	det.mu.Unlock()
}

// heartbeatRound is one pass over the watched peers: it transmits a
// heartbeat to every peer not considered Down whose channel has been
// idle for an interval (peers the transport sent other frames more
// recently are hearing from us anyway; Reliable.LastSent), floored at
// one explicit heartbeat per 8 intervals so a watcher holding us Down is
// guaranteed to eventually see an incarnation-carrying beacon. This is
// the detector's only O(peers) walk, and its cost is the fan-out the
// wire sees anyway: verdict deadlines fire as per-peer timers (see
// firePeer).
func (det *Detector) heartbeatRound(now time.Time) {
	det.mu.Lock()
	if det.stopping {
		det.mu.Unlock()
		return
	}
	det.seq++
	seq, inc := det.seq, det.cfg.Incarnation
	// A busy channel suppresses explicit heartbeats, but never all of
	// them: one per 8 intervals still flows, because a watcher that
	// declared us Down ignores our application frames and only a
	// beacon's incarnation can lift its verdict. Our own last heartbeat
	// is not traffic: only a frame sequenced after the round that sent
	// it counts.
	rel := det.d.Transport()
	targets := det.scratchHB[:0]
	for _, p := range det.peers {
		if p.state == Down {
			continue // Down peers get the slow probe instead (see firePeer)
		}
		last := rel.LastSent(p.addr)
		busy := last.After(p.lastHB) && now.Sub(last) < det.cfg.Interval
		if !busy || now.Sub(p.lastHB) >= 8*det.cfg.Interval {
			targets = append(targets, wire.InboxRef{Dapplet: p.addr, Inbox: ControlInbox})
		}
	}
	det.scratchHB = targets
	det.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	hb := &heartbeatMsg{From: det.d.Name(), Seq: seq, Inc: inc}
	for _, to := range targets {
		det.hbSent.Add(1)
		_ = det.d.SendDirect(to, "", hb)
	}
	det.mu.Lock()
	sent := time.Now()
	for _, to := range targets {
		if p, ok := det.byAddr[to.Dapplet]; ok {
			p.lastHB = sent
		}
	}
	det.mu.Unlock()
}

// firePeer runs when p's verdict timer expires: the peer's detection
// window may have run out. The timer is armed lazily: beacons refresh
// lastHeard without touching it, so a firing whose window turns out
// unexpired simply re-arms for the remainder, under det.mu alone.
// Escalations emit Suspect, then Down; a Down peer's timer switches to
// pacing the address-learning probe at 1/8 the heartbeat rate — enough
// for two detectors that declared each other Down across a healed
// partition to rediscover one another, without a dead peer's
// retransmission state growing at full heartbeat rate.
func (det *Detector) firePeer(p *peerState) {
	if !det.enter() {
		return
	}
	defer det.wg.Done()
	now := time.Now()
	det.mu.Lock()
	if det.stopping || det.peers[p.name] != p {
		det.mu.Unlock()
		return
	}
	if left, ok := p.windowLeft(det.cfg, now); ok { // heard since the timer was set
		p.timer.Reset(left)
		det.mu.Unlock()
		return
	}
	timeout := p.detectionTimeout(det.cfg)
	elapsed := now.Sub(p.lastHeard)
	quorum := det.quorum()
	var (
		next time.Duration
		ev   Event
		emit bool
		// Quorum side effects resolved under det.mu, posted with the
		// event (they send).
		askRelays bool
		rumor     uint8
		haveRumor bool
	)
	switch p.state {
	case Up:
		p.state = Suspect
		p.suspInc = p.lastInc
		if quorum > 1 {
			// This watcher is the suspicion's first confirmer; the rest
			// must come from relays or gossip before Down.
			p.confirms = map[string]bool{det.d.Name(): true}
			askRelays = true
			rumor, haveRumor = rumorSuspect, true
		}
		ev = Event{Peer: p.name, Addr: p.addr, State: Suspect, Incarnation: p.lastInc}
		emit = true
		next = 2*timeout - elapsed
	case Suspect:
		switch {
		case quorum > 1 && len(p.confirms) < quorum:
			// Window expired but the quorum has not: hold at Suspect (a
			// partitioned watcher holds here forever), nudge the relays
			// again in case their outcomes were lost, and recheck.
			askRelays = true
			next = timeout
		default:
			p.state = Down
			p.confirms = nil
			ev = Event{Peer: p.name, Addr: p.addr, State: Down, Incarnation: p.lastInc}
			emit = true
			if quorum > 1 {
				rumor, haveRumor = rumorDown, true
			}
			next = det.cfg.Interval // first probe follows promptly
		}
	case Down:
		if !p.probing {
			p.probing = true
			name, addr := p.name, p.addr
			// Spawned under det.mu: the stopping check above then
			// happens-before detach, so the thread is registered before
			// the dapplet's Stop waits for threads.
			det.d.Spawn(func() { det.probe(name, addr) })
		}
		p.timer.Reset(8 * det.cfg.Interval) // probe pacing: nothing to post
		det.mu.Unlock()
		return
	}
	p.timer.Reset(next) // an overdue deadline (next < 0) fires at once
	name, addr, suspInc := p.name, p.addr, p.suspInc
	det.postLocked(func() {
		if emit {
			det.emit(ev)
		}
		if askRelays {
			det.launchIndirect(name, addr, suspInc)
		}
		if haveRumor {
			det.spreadVerdict(name, addr, suspInc, rumor)
		}
	})
}

// probe issues one address-learning probe to a Down peer: an svc call to
// its "@fail" inbox whose reply — name and incarnation — lifts the Down
// verdict through the same path a heartbeat would, without requiring the
// peer to watch us back. At most one probe per peer is in flight; the
// call is bounded by one detection-ish window (8 intervals).
func (det *Detector) probe(name string, addr netsim.Addr) {
	det.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 8*det.cfg.Interval) //wwlint:allow ctxcheck detector-initiated probe with no caller; bounded by 8 intervals
	defer cancel()
	var rep probeRepMsg
	err := det.probeCaller().Call(ctx, wire.InboxRef{Dapplet: addr, Inbox: ControlInbox},
		&probeMsg{From: det.d.Name(), Inc: det.cfg.Incarnation}, &rep)
	det.mu.Lock()
	if p, ok := det.peers[name]; ok {
		p.probing = false
	}
	det.mu.Unlock()
	if err != nil || rep.Name != name {
		return
	}
	det.applyBeacon(name, rep.Inc, addr)
}
