package failure

import (
	"context"
	"hash/fnv"
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
	// Interval is the heartbeat transmission period (default 50ms) on a
	// channel that carries nothing else.
	Interval time.Duration
	// Multiplier is the number of intervals a peer may go unheard before
	// it is Suspect; a further Multiplier intervals make it Down (default
	// 3, the conventional BFD detect multiplier). The interval is
	// Interval, or, where the peer's heartbeats arrive less regularly,
	// their smoothed spacing plus four deviations.
	Multiplier int
	// Incarnation identifies this instance's lifetime; a restarted
	// dapplet attaches a detector with a higher incarnation so watchers
	// can tell recovery from restart (core.Runtime.Incarnation supplies
	// one).
	Incarnation uint64
	// Gossip, when set, spreads suspicions, Down verdicts and alive
	// refutations as rumors on the engine's "fail" topic, and makes
	// Down need a quorum of two distinct confirmers — this watcher,
	// relays whose indirect probes failed, gossip origins suspecting the
	// same incarnation — so a watcher partitioned away from a live peer
	// stays at Suspect instead of committing a false Down (see
	// quorum.go). Without it, this watcher's clock alone decides.
	Gossip *gossip.Engine
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Multiplier <= 0 {
		c.Multiplier = 3
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

// Detector heartbeats the peers watching this dapplet and watches peers
// in return, driving its verdict machine (verdict.go). All methods are
// safe for concurrent use.
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

	mu sync.Mutex
	m  *verdicts
	// timers holds each watched peer's verdict timer, moved with Reset
	// under mu at the delays the machine names: lazily, so hearing the
	// peer never has to move it.
	timers   map[string]*time.Timer
	obs      []func(Event)
	stopping bool
	// posted is the work of verdict changes not yet done, in the order
	// made; posting marks a goroutine doing it (see settleLocked).
	posted  []effects
	posting bool

	hbSent atomic.Uint64
	probes atomic.Uint64
}

// Stats counts a detector's transmitted heartbeats and probes.
type Stats struct {
	// HeartbeatsSent is the number of explicit heartbeat transmissions.
	HeartbeatsSent uint64
	// ProbesSent is the number of address-learning probes issued to Down
	// peers (the svc request/reply that rediscovers a healed partition).
	ProbesSent uint64
}

// Attach equips a dapplet with a failure detector. The detector runs
// its heartbeat rounds and per-peer verdicts on runtime timers, which
// hold no goroutine while they wait, and detaches when the dapplet
// stops. Any frame the dapplet exchanges with a watched peer doubles as
// liveness evidence, read from the transport: a frame received from the
// peer (Reliable.LastHeard) refreshes its deadline and lifts a Suspect
// verdict at the next heartbeat round, and a frame sent to it
// (Reliable.LastSent) suppresses the next explicit heartbeat, so
// heartbeats flow only on idle channels. The "@fail" inbox is an
// svc-served inbox: heartbeats arrive bare (one-way), and
// address-learning probes arrive correlated and are answered with this
// instance's name and incarnation.
func Attach(d *core.Dapplet, cfg Config) *Detector {
	cfg = cfg.withDefaults()
	quorum := 1
	if cfg.Gossip != nil {
		quorum = gossipQuorum
	}
	det := &Detector{
		d:      d,
		cfg:    cfg,
		m:      newVerdicts(d.Name(), cfg.Interval, cfg.Multiplier, quorum),
		timers: make(map[string]*time.Timer),
	}
	svc.Serve(d, ControlInbox, svc.Handlers{
		"fail.hb": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			hb := req.(*heartbeatMsg)
			det.step(func(now time.Time) effects { return det.m.beacon(now, hb.From, hb.Inc, hb.Seq, c.From()) })
			return nil, nil
		},
		"fail.probe": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			// A probe is itself liveness evidence, incarnation included:
			// if we hold the prober Down across a healed partition, this
			// lifts our verdict while the reply lifts theirs.
			p := req.(*probeMsg)
			det.step(func(now time.Time) effects { return det.m.beacon(now, p.From, p.Inc, 0, c.From()) })
			return &probeRepMsg{Name: d.Name(), Inc: det.cfg.Incarnation}, nil
		},
		"fail.iprobe":     det.handleIProbe,
		"fail.iprobe-rep": det.handleIProbeRep,
	})
	if det.cfg.Gossip != nil {
		det.cfg.Gossip.OnRumor(GossipTopic, det.onVerdictRumor)
	}
	// Stagger the first round within a quarter interval so detectors
	// attached together do not all fan out at the same instant.
	first := det.cfg.Interval + hbStagger(d.Name(), det.cfg.Interval/4)
	det.mu.Lock()
	det.hbDue = time.Now().Add(first)
	round := det.heartbeatRound
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
	h := fnv.New64a()
	h.Write([]byte(name))
	return time.Duration(h.Sum64() % uint64(m))
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
	for _, t := range det.timers {
		t.Stop()
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

// Stats returns the detector's heartbeat-economy counters.
func (det *Detector) Stats() Stats {
	return Stats{
		HeartbeatsSent: det.hbSent.Load(),
		ProbesSent:     det.probes.Load(),
	}
}

// Watched returns the number of peers currently watched.
func (det *Detector) Watched() int {
	det.mu.Lock()
	defer det.mu.Unlock()
	return len(det.m.peers)
}

// Watch starts heartbeating and monitoring the named peer. The peer
// starts Up with a fresh grace window, so watching a live peer does not
// produce a spurious Suspect. Detection is bidirectional, as in BFD:
// a detector only transmits heartbeats to peers it watches, so both
// ends of a channel must watch each other for either to be monitored.
func (det *Detector) Watch(name string, addr netsim.Addr) {
	det.mu.Lock()
	defer det.mu.Unlock()
	first, fresh := det.m.watch(time.Now(), name, addr)
	if !fresh {
		return
	}
	// A firing meant for an earlier watch of name is only an early
	// check: expire re-arms for whatever is left of the window.
	check := func() { det.expire(name) }
	t := time.AfterFunc(first, func() { work.run(check) })
	if det.stopping {
		t.Stop() // detach has stopped every other timer already
	}
	det.timers[name] = t
}

// Unwatch stops heartbeating and monitoring the named peer.
func (det *Detector) Unwatch(name string) {
	det.mu.Lock()
	defer det.mu.Unlock()
	det.m.unwatch(name)
	if t, ok := det.timers[name]; ok {
		t.Stop()
		delete(det.timers, name)
	}
}

// Status returns the current verdict for a watched peer.
func (det *Detector) Status(name string) (State, bool) {
	det.mu.Lock()
	defer det.mu.Unlock()
	if p, ok := det.m.peers[name]; ok {
		return p.state, true
	}
	return Up, false
}

// Addr returns the last known address of a watched peer, which tracks
// restarts (a heartbeat from a reincarnated peer updates it).
func (det *Detector) Addr(name string) (netsim.Addr, bool) {
	det.mu.Lock()
	defer det.mu.Unlock()
	if p, ok := det.m.peers[name]; ok {
		return p.addr, true
	}
	return netsim.Addr{}, false
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

// step runs t, one transition of the verdict machine, under det.mu and
// settles and returns its effects, unless detach has begun.
func (det *Detector) step(t func(now time.Time) effects) effects {
	det.mu.Lock()
	if det.stopping {
		det.mu.Unlock()
		return effects{}
	}
	fx := t(time.Now())
	start := det.settleLocked(fx)
	det.mu.Unlock()
	if start {
		handoff(det.drainPosted)
	}
	return fx
}

// settleLocked moves the verdict timers fx names and spawns its probe,
// under det.mu while !stopping, and queues the rest for drainPosted: the
// changes reach observers in the order made, none waits for an observer,
// and the receive goroutine never waits for a rumour's window. The
// caller starts the drain, once it releases det.mu, if start.
func (det *Detector) settleLocked(fx effects) (start bool) {
	for _, a := range fx.arms {
		if t, ok := det.timers[a.peer]; ok {
			t.Reset(a.after)
		}
	}
	if fx.probe != "" {
		// Spawned under det.mu: the stopping check then happens-before
		// detach, so the thread is registered before the dapplet's Stop
		// waits for threads.
		name, addr := fx.probe, fx.probeAt
		det.d.Spawn(func() { det.probe(name, addr) })
	}
	if fx.events == nil && fx.ask == nil && fx.rumor == nil {
		return false
	}
	det.posted = append(det.posted, fx)
	start = !det.posting
	det.posting = true
	return start
}

// handoff starts f, a detector's posted work, on the work queue.
//
//wwlint:handoff f runs on the work queue, where a rumour may wait for its window
func handoff(f func()) { work.run(f) }

// drainPosted does posted work, in order, until none is left.
func (det *Detector) drainPosted() {
	if !det.enter() {
		return
	}
	defer det.wg.Done()
	det.mu.Lock()
	for len(det.posted) > 0 {
		fx := det.posted[0]
		det.posted = det.posted[1:]
		obs := det.obs
		det.mu.Unlock()
		for _, ev := range fx.events {
			for _, f := range obs {
				f(ev)
			}
		}
		for _, r := range fx.relays {
			_ = det.d.SendDirect(wire.InboxRef{Dapplet: r, Inbox: ControlInbox}, "", fx.ask)
		}
		if fx.rumor != nil {
			_ = det.cfg.Gossip.Broadcast(GossipTopic, fx.rumor)
		}
		det.mu.Lock()
	}
	det.posted, det.posting = nil, false
	det.mu.Unlock()
}

// heartbeatRound runs when the heartbeat-round timer expires: the
// machine's round, the detector's only O(peers) walk, whose cost is the
// fan-out the wire sees anyway, then its heartbeats. The timer then
// moves to one Interval after this round was due, so the timer's wake-up
// latency does not stretch the period peers learn (after a stall longer
// than an Interval the cadence restarts from now). It is re-armed only
// after the round's sends, so two rounds never overlap.
func (det *Detector) heartbeatRound() {
	if !det.enter() {
		return
	}
	defer det.wg.Done()
	now := time.Now()
	fx := det.step(func(time.Time) effects { return det.m.round(now, det.d.Transport()) })
	if len(fx.beats) > 0 {
		hb := &heartbeatMsg{From: det.d.Name(), Seq: fx.seq, Inc: det.cfg.Incarnation}
		for _, to := range fx.beats {
			det.hbSent.Add(1)
			_ = det.d.SendDirect(wire.InboxRef{Dapplet: to, Inbox: ControlInbox}, "", hb)
		}
	}
	det.mu.Lock()
	det.m.heartbeated(time.Now())
	if !det.stopping {
		det.hbDue = det.hbDue.Add(det.cfg.Interval)
		if det.hbDue.Before(now) {
			det.hbDue = now.Add(det.cfg.Interval)
		}
		det.hb.Reset(time.Until(det.hbDue))
	}
	det.mu.Unlock()
}

// expire runs when name's verdict timer fires.
func (det *Detector) expire(name string) {
	if !det.enter() {
		return
	}
	defer det.wg.Done()
	det.step(func(now time.Time) effects { return det.m.expire(now, name, det.d.Transport()) })
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
	det.step(func(now time.Time) effects {
		det.m.probed(name)
		if err != nil || rep.Name != name {
			return effects{}
		}
		return det.m.beacon(now, name, rep.Inc, 0, addr)
	})
}
