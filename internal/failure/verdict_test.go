package failure

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestVerdictsArePure keeps the verdict protocol a state machine that a
// test can drive on a virtual clock: verdict.go imports none of sync,
// core, svc, transport and directory, calls no function of package time (it
// may use its types and constants, and convert to them), and starts no
// goroutine.
func TestVerdictsArePure(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "verdict.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	timeName := ""
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "sync", "sync/atomic", "repro/internal/core", "repro/internal/svc", "repro/internal/transport", "repro/internal/directory":
			t.Errorf("verdict.go imports %s", path)
		case "time":
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	calls := 0
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("%s: a go statement", fset.Position(n.Pos()))
		case *ast.CallExpr:
			calls++
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && timeName != "" && id.Name == timeName && sel.Sel.Name != "Duration" {
					t.Errorf("%s: calls time.%s", fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
		}
		return true
	})
	if calls < 30 {
		t.Fatalf("found only %d calls: the test is not reading the machine", calls)
	}
}

// epoch is the virtual clock's zero.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

const ms = time.Millisecond

// readings is a scripted transport: the LastHeard and LastSent readings
// the machine is handed.
type readings struct {
	heard, sent map[netsim.Addr]time.Time
}

func newReadings() *readings {
	return &readings{heard: make(map[netsim.Addr]time.Time), sent: make(map[netsim.Addr]time.Time)}
}

func (r *readings) LastHeard(a netsim.Addr) time.Time { return r.heard[a] }
func (r *readings) LastSent(a netsim.Addr) time.Time  { return r.sent[a] }

func addrOf(name string) netsim.Addr { return netsim.Addr{Host: "h" + name, Port: 1} }

// machine is a verdict machine watching the named peers from epoch, with
// a scripted transport.
func machine(interval time.Duration, mult, quorum int, peers ...string) (*verdicts, *readings) {
	m := newVerdicts("w", interval, mult, quorum)
	for _, p := range peers {
		m.watch(epoch, p, addrOf(p))
	}
	return m, newReadings()
}

// at is the virtual time d after epoch.
func at(d time.Duration) time.Time { return epoch.Add(d) }

// states lists fx's events as peer:state.
func states(fx effects) []string {
	var out []string
	for _, ev := range fx.events {
		out = append(out, ev.Peer+":"+ev.State.String())
	}
	return out
}

// expect fails unless fx made exactly the events want, and, when arm is
// not negative, moved the peer's timer to arm.
func expect(t *testing.T, what string, fx effects, arm time.Duration, want ...string) {
	t.Helper()
	if got := states(fx); !slices.Equal(got, want) {
		t.Fatalf("%s: events %v, want %v", what, got, want)
	}
	if arm >= 0 && (len(fx.arms) != 1 || fx.arms[0].after != arm) {
		t.Fatalf("%s: timers moved %v, want one to %v", what, fx.arms, arm)
	}
}

// The two windows: a peer unheard for Multiplier × max(Interval, mean +
// 4 deviations) is Suspect, and for twice that, Down. A timer firing
// before the window has run out re-arms for the rest.
func TestVerdictWindows(t *testing.T) {
	t.Run("interval", func(t *testing.T) {
		m, l := machine(10*ms, 3, 1, "b")
		expect(t, "early", m.expire(at(20*ms), "b", l), 10*ms)
		l.heard[addrOf("b")] = at(25 * ms) // a frame: the window runs from here
		expect(t, "after a frame", m.expire(at(30*ms), "b", l), 25*ms)
		expect(t, "one window", m.expire(at(55*ms), "b", l), 30*ms, "b:suspect")
		expect(t, "early in suspect", m.expire(at(84*ms), "b", l), 1*ms)
		expect(t, "two windows", m.expire(at(85*ms), "b", l), 10*ms, "b:down")
	})
	t.Run("envelope", func(t *testing.T) {
		// Heartbeats of consecutive rounds 10 and 30 ms apart: the
		// envelope outgrows the interval and stretches both windows.
		m, l := machine(10*ms, 3, 1, "b")
		now := epoch
		for seq := uint64(1); seq <= 8; seq++ {
			now = now.Add(time.Duration(10+20*(seq%2)) * ms)
			m.beacon(now, "b", 0, seq, addrOf("b"))
		}
		p := m.peers["b"]
		window := 3 * (p.meanIA + 4*p.devIA)
		if window <= 30*ms {
			t.Fatalf("envelope %v+4·%v did not outgrow the interval", p.meanIA, p.devIA)
		}
		expect(t, "before one window", m.expire(now.Add(window-1), "b", l), 1)
		expect(t, "one window", m.expire(now.Add(window), "b", l), window, "b:suspect")
		expect(t, "before two", m.expire(now.Add(2*window-1), "b", l), 1)
		expect(t, "two windows", m.expire(now.Add(2*window), "b", l), 10*ms, "b:down")
	})
}

// A beacon lifts Suspect and Down at once; hearing a frame lifts Suspect
// at the next round, if it came since the suspicion was raised, and
// never lifts Down.
func TestVerdictLifts(t *testing.T) {
	b := addrOf("b")
	t.Run("beacon", func(t *testing.T) {
		m, l := machine(10*ms, 2, 1, "b")
		expect(t, "suspect", m.expire(at(20*ms), "b", l), 20*ms, "b:suspect")
		expect(t, "beacon at suspect", m.beacon(at(25*ms), "b", 0, 0, b), 20*ms, "b:up")
		m.expire(at(45*ms), "b", l)
		expect(t, "down", m.expire(at(65*ms), "b", l), 10*ms, "b:down")
		expect(t, "beacon at down", m.beacon(at(70*ms), "b", 0, 0, b), 20*ms, "b:up")
	})
	t.Run("hearing", func(t *testing.T) {
		m, l := machine(10*ms, 2, 1, "b")
		l.heard[b] = at(5 * ms)
		m.expire(at(25*ms), "b", l) // suspect
		expect(t, "heard before the suspicion", m.round(at(30*ms), l), -1)
		l.heard[b] = at(31 * ms)
		expect(t, "heard since", m.round(at(40*ms), l), -1, "b:up")
		m.expire(at(51*ms), "b", l) // suspect
		m.expire(at(71*ms), "b", l) // down
		l.heard[b] = at(75 * ms)
		expect(t, "heard at down", m.round(at(80*ms), l), -1)
		if st := m.peers["b"].state; st != Down {
			t.Fatalf("hearing lifted down: %v", st)
		}
	})
}

// TestStaleIncarnationHeartbeatIgnored pins the incarnation ordering: a
// delayed beacon from a dead incarnation (lower Inc) must not revert
// the learned address or lift a Down verdict.
func TestStaleIncarnationHeartbeatIgnored(t *testing.T) {
	m, l := machine(time.Second, 2, 1)
	newAddr := netsim.Addr{Host: "new", Port: 2}
	m.watch(epoch, "p", newAddr)
	m.beacon(epoch, "p", 2, 0, newAddr)
	m.expire(at(2*time.Second), "p", l)
	m.expire(at(4*time.Second), "p", l)
	p := m.peers["p"]
	if p.state != Down {
		t.Fatalf("setup: state=%v", p.state)
	}

	expect(t, "stale beacon", m.beacon(at(5*time.Second), "p", 1, 0, netsim.Addr{Host: "old", Port: 1}), -1)
	if p.state != Down {
		t.Fatalf("stale beacon lifted the Down verdict (state=%v)", p.state)
	}
	if p.addr != newAddr || p.lastInc != 2 || m.byAddr[newAddr] != p {
		t.Fatalf("stale beacon reverted peer identity: addr=%v inc=%d", p.addr, p.lastInc)
	}

	// The current incarnation's beacon does lift it and resets the
	// rhythm estimators (the outage gap is not a rhythm sample).
	p.meanIA, p.devIA = time.Minute, time.Minute
	expect(t, "current beacon", m.beacon(at(6*time.Second), "p", 2, 0, newAddr), 2*time.Second, "p:up")
	if p.meanIA != 0 || p.devIA != 0 {
		t.Fatalf("recovery did not reset interarrival estimators (mean=%v dev=%v)", p.meanIA, p.devIA)
	}
}

// beats lists a round's heartbeat targets by host.
func beats(fx effects) []string {
	var out []string
	for _, a := range fx.beats {
		out = append(out, a.Host)
	}
	slices.Sort(out)
	return out
}

// A round heartbeats a peer unless a frame was sequenced to it after
// its last heartbeat and within an interval; the heartbeat itself is
// sequenced after the round began and is no such frame. The first round
// after a watch or a move always heartbeats, and none heartbeats a Down
// peer.
func TestVerdictHeartbeatSuppression(t *testing.T) {
	m, l := machine(10*ms, 3, 1, "b", "c")
	b, c := addrOf("b"), addrOf("c")
	// round sends its heartbeats 1 µs after it begins and stamps them
	// sent 1 µs later, as the driver does after its sends.
	round := func(now time.Time, want ...string) {
		t.Helper()
		fx := m.round(now, l)
		if got := beats(fx); !slices.Equal(got, want) {
			t.Fatalf("round at %v: heartbeats to %v, want %v", now.Sub(epoch), got, want)
		}
		for _, a := range fx.beats {
			l.sent[a] = now.Add(time.Microsecond)
		}
		m.heartbeated(now.Add(2 * time.Microsecond))
	}
	l.sent[b], l.sent[c] = at(9*ms), at(9*ms) // traffic, but no heartbeat yet
	round(at(10*ms), "hb", "hc")
	round(at(20*ms), "hb", "hc") // own heartbeats only: idle
	l.sent[b] = at(25 * ms)      // a frame to b after its heartbeat
	round(at(30*ms), "hc")
	round(at(34*ms), "hc") // within an interval of the frame
	round(at(45*ms), "hb", "hc")
	l.sent[b] = at(46 * ms)
	m.beacon(at(47*ms), "b", 0, 0, netsim.Addr{Host: "hb2", Port: 1}) // b moved
	l.sent[netsim.Addr{Host: "hb2", Port: 1}] = at(48 * ms)
	round(at(50*ms), "hb2", "hc")
	m.expire(at(200*ms), "c", l) // suspect
	m.expire(at(300*ms), "c", l) // down
	round(at(310*ms), "hb2")
}

// The rhythm envelope samples only the gap between heartbeats of
// consecutive rounds from an Up peer of one incarnation: not a gap
// across a suppressed round, not a probe, not a beacon at Suspect.
func TestVerdictEnvelopeConsecutiveRounds(t *testing.T) {
	m, l := machine(10*ms, 3, 1, "b")
	b := addrOf("b")
	p := m.peers["b"]
	m.beacon(at(10*ms), "b", 0, 1, b)
	m.beacon(at(22*ms), "b", 0, 2, b)
	if p.meanIA != 12*ms {
		t.Fatalf("consecutive rounds sampled %v, want 12ms", p.meanIA)
	}
	m.beacon(at(60*ms), "b", 0, 4, b) // round 3 was suppressed
	m.beacon(at(90*ms), "b", 0, 0, b) // a probe
	m.beacon(at(95*ms), "b", 1, 5, b) // a new incarnation
	if p.meanIA != 12*ms || p.devIA != 0 {
		t.Fatalf("non-consecutive beacons sampled: mean %v dev %v", p.meanIA, p.devIA)
	}
	m.expire(at(131*ms), "b", l) // suspect
	m.beacon(at(132*ms), "b", 1, 6, b)
	if p.meanIA != 0 {
		t.Fatalf("a lift kept the envelope: mean %v", p.meanIA)
	}
	m.beacon(at(142*ms), "b", 1, 7, b)
	if p.meanIA != 10*ms {
		t.Fatalf("after the lift consecutive rounds sampled %v, want 10ms", p.meanIA)
	}
	m.beacon(at(156*ms), "b", 1, 8, b)
	if want := 10*ms + 4*ms/8; p.meanIA != want || p.devIA != 4*ms/4 {
		t.Fatalf("smoothing: mean %v dev %v, want %v and %v", p.meanIA, p.devIA, want, ms)
	}
}

// Under a quorum of two a watcher's window running out makes Suspect and
// asks two live relays and gossip, but Down waits for a second distinct
// confirmer, however often the window runs out again; a confirmation
// before the window has run out counts when it does.
func TestVerdictQuorumHoldsSuspect(t *testing.T) {
	m, l := machine(10*ms, 2, gossipQuorum, "tgt", "r1", "r2", "r3")
	fx := m.expire(at(20*ms), "tgt", l)
	expect(t, "window", fx, 20*ms, "tgt:suspect")
	if fx.ask == nil || fx.ask.Target != "tgt" || len(fx.relays) != indirectProbes || slices.Contains(fx.relays, addrOf("tgt")) {
		t.Fatalf("relays asked: %v %+v", fx.relays, fx.ask)
	}
	if fx.rumor == nil || fx.rumor.Verdict != rumorSuspect {
		t.Fatalf("rumour %+v, want a suspicion", fx.rumor)
	}
	for i := range 5 {
		fx = m.expire(at(time.Duration(40+20*i)*ms), "tgt", l)
		expect(t, "held", fx, 20*ms)
		if len(fx.relays) != indirectProbes {
			t.Fatalf("a held suspicion asked %d relays again", len(fx.relays))
		}
	}
	expect(t, "the watcher again", m.confirm(at(150*ms), "tgt", "w", 0, l), -1)
	expect(t, "a relay", m.confirm(at(150*ms), "tgt", "r1", 0, l), -1, "tgt:down")

	// A confirmation about an older incarnation is dropped.
	m, l = machine(10*ms, 2, gossipQuorum, "tgt", "r1")
	m.beacon(epoch, "tgt", 1, 0, addrOf("tgt"))
	m.expire(at(20*ms), "tgt", l)
	expect(t, "an older incarnation's", m.confirm(at(22*ms), "tgt", "r1", 0, l), -1)
	expect(t, "held without it", m.expire(at(40*ms), "tgt", l), 20*ms)
	expect(t, "this incarnation's", m.confirm(at(45*ms), "tgt", "r1", 1, l), -1, "tgt:down")

	// A confirmation within the window counts when the window runs out.
	m, l = machine(10*ms, 2, gossipQuorum, "tgt", "r1")
	m.expire(at(20*ms), "tgt", l)
	expect(t, "confirmed early", m.confirm(at(25*ms), "tgt", "r1", 0, l), -1)
	expect(t, "window after confirmation", m.expire(at(40*ms), "tgt", l), 10*ms, "tgt:down")
	if fx := m.expire(at(50*ms), "tgt", l); fx.rumor != nil || len(fx.relays) != 0 {
		t.Fatalf("a Down peer's timer spread %+v and asked %v", fx.rumor, fx.relays)
	}
}

// An alive rumour or a relay that reached the peer lifts Suspect, unless
// it is about an older incarnation than the one suspected; it never
// lifts Down.
func TestVerdictAliveRumorLiftsSuspectNotDown(t *testing.T) {
	m, l := machine(10*ms, 2, gossipQuorum, "tgt")
	b := addrOf("tgt")
	m.beacon(at(1*ms), "tgt", 3, 0, b)
	m.expire(at(21*ms), "tgt", l)
	expect(t, "older incarnation", m.refute(at(22*ms), "tgt", 2), -1)
	expect(t, "alive", m.refute(at(23*ms), "tgt", 3), 20*ms, "tgt:up")
	m.expire(at(43*ms), "tgt", l)
	m.confirm(at(44*ms), "tgt", "r", 3, l)
	m.expire(at(63*ms), "tgt", l)
	if st := m.peers["tgt"].state; st != Down {
		t.Fatalf("setup: %v", st)
	}
	expect(t, "alive at down", m.refute(at(64*ms), "tgt", 4), -1)
}

// A Down peer's timer paces one probe at a time: the first follows one
// interval after Down, then every 8 intervals, with none while one is in
// flight.
func TestVerdictProbePacing(t *testing.T) {
	m, l := machine(10*ms, 2, 1, "b")
	m.expire(at(20*ms), "b", l)
	expect(t, "down", m.expire(at(40*ms), "b", l), 10*ms, "b:down")
	fx := m.expire(at(50*ms), "b", l)
	if fx.probe != "b" || fx.probeAt != addrOf("b") || len(fx.arms) != 1 || fx.arms[0].after != 80*ms {
		t.Fatalf("first probe: %+v", fx)
	}
	if fx := m.expire(at(130*ms), "b", l); fx.probe != "" || fx.arms[0].after != 80*ms {
		t.Fatalf("a second probe while one is in flight: %+v", fx)
	}
	m.probed("b")
	if fx := m.expire(at(210*ms), "b", l); fx.probe != "b" {
		t.Fatalf("no probe after the last came back: %+v", fx)
	}
}

// vnode is one detector's machine in a virtual world, with its driver's
// state: verdict timers as due times, the next round, and the transport
// readings.
type vnode struct {
	*readings
	name   string
	inc    uint64
	m      *verdicts
	due    map[string]time.Time
	round  time.Time
	events []Event
	hbs    int
	dead   bool // crashed: no rounds, no timers, nothing sent or heard
}

// vflight is a datagram on the line: a heartbeat, or an application
// frame (hb nil).
type vflight struct {
	at       time.Time
	from, to *vnode
	hb       *heartbeatMsg
}

// vworld runs detectors' machines on one virtual clock, joined by lines
// with a fixed one-way delay. Nothing moves until the test runs the
// clock.
type vworld struct {
	now      time.Time
	interval time.Duration
	delay    time.Duration
	nodes    []*vnode
	flight   []vflight
}

// node attaches a detector named name; its first round is staggered as
// Attach staggers it.
func (w *vworld) node(name string, mult int) *vnode {
	n := &vnode{readings: newReadings(), name: name, m: newVerdicts(name, w.interval, mult, 1), due: make(map[string]time.Time)}
	n.round = w.now.Add(w.interval + hbStagger(name, w.interval/4))
	w.nodes = append(w.nodes, n)
	return n
}

func (w *vworld) watch(n, peer *vnode) {
	d, _ := n.m.watch(w.now, peer.name, addrOf(peer.name))
	n.due[peer.name] = w.now.Add(d)
}

// send puts an application frame from a to b on the line.
func (w *vworld) send(a, b *vnode) {
	if !a.dead {
		a.sent[addrOf(b.name)] = w.now
		w.flight = append(w.flight, vflight{at: w.now.Add(w.delay), from: a, to: b})
	}
}

func (w *vworld) apply(n *vnode, fx effects) {
	n.events = append(n.events, fx.events...)
	for _, a := range fx.arms {
		n.due[a.peer] = w.now.Add(max(a.after, 0))
	}
}

// run runs the clock for d: rounds, verdict timers and arrivals, in time
// order.
func (w *vworld) run(d time.Duration) {
	end := w.now.Add(d)
	for {
		next, do := end.Add(1), func() {}
		for _, n := range w.nodes {
			if n.dead {
				continue
			}
			if n.round.Before(next) {
				next, do = n.round, func() { w.heartbeatRound(n) }
			}
			for _, p := range slices.Sorted(maps.Keys(n.due)) {
				if t := n.due[p]; t.Before(next) {
					next, do = t, func() { delete(n.due, p); w.apply(n, n.m.expire(w.now, p, n)) }
				}
			}
		}
		for i, f := range w.flight {
			if f.at.Before(next) {
				next, do = f.at, func() { w.flight = slices.Delete(w.flight, i, i+1); w.arrive(f) }
			}
		}
		if next.After(end) {
			break
		}
		w.now = next
		do()
	}
	w.now = end
}

// heartbeatRound runs n's round: its heartbeats are sequenced 1 µs after
// the round begins, and stamped sent 1 µs later.
func (w *vworld) heartbeatRound(n *vnode) {
	fx := n.m.round(w.now, n)
	w.apply(n, fx)
	sent := w.now.Add(time.Microsecond)
	for _, a := range fx.beats {
		for _, to := range w.nodes {
			if addrOf(to.name) == a {
				n.hbs++
				n.sent[a] = sent
				w.flight = append(w.flight, vflight{at: sent.Add(w.delay), from: n, to: to, hb: &heartbeatMsg{From: n.name, Seq: fx.seq, Inc: n.inc}})
			}
		}
	}
	n.m.heartbeated(sent.Add(time.Microsecond))
	n.round = w.now.Add(w.interval)
}

// arrive hands a datagram to its receiver: the transport hears it, and a
// heartbeat is a beacon.
func (w *vworld) arrive(f vflight) {
	if f.to.dead || f.from.dead {
		return
	}
	f.to.heard[addrOf(f.from.name)] = w.now
	if f.hb != nil {
		w.apply(f.to, f.to.m.beacon(w.now, f.hb.From, f.hb.Inc, f.hb.Seq, addrOf(f.from.name)))
	}
}

// TestBusyPairThenCrash: a pair that streams both ways for 40
// intervals, in bursts as an application does, hears each other through
// the transport. When one crashes the survivor holds it Down within
// (2·Multiplier + 1)·Interval: the detection time is Multiplier ×
// Interval from the last frame heard, stretched only by the jitter of
// heartbeats of consecutive rounds, never by the pauses between bursts,
// across which heartbeat rounds were suppressed.
func TestBusyPairThenCrash(t *testing.T) {
	const (
		interval = 100 * ms
		mult     = 2
	)
	w := &vworld{now: epoch, interval: interval, delay: ms}
	a, b := w.node("a", mult), w.node("b", mult)
	w.watch(a, b)
	w.watch(b, a)
	burst := func(d time.Duration) {
		for end := w.now.Add(d); w.now.Before(end); w.run(interval / 4) {
			w.send(a, b)
			w.send(b, a)
		}
	}
	// Bursts of three intervals with a frame each way every quarter
	// interval, then a pause of two and a half, in which heartbeats flow.
	for start := w.now; w.now.Sub(start) < 40*interval; {
		burst(3 * interval)
		w.run(5 * interval / 2)
	}
	burst(interval)
	for _, ev := range a.events {
		if ev.State != Up {
			t.Fatalf("b went %v while the pair streamed", ev.State)
		}
	}
	if a.hbs == 0 || b.hbs == 0 {
		t.Fatalf("no heartbeat flowed in the pauses: a %d, b %d", a.hbs, b.hbs)
	}
	crash := w.now
	b.dead = true
	for len(a.events) == 0 || a.events[len(a.events)-1].State != Down {
		if w.now.Sub(crash) > 10*interval {
			t.Fatalf("b not down 10 intervals after its crash: %v", a.events)
		}
		w.run(ms)
	}
	if took, bound := w.now.Sub(crash), (2*mult+1)*interval; took > bound {
		t.Fatalf("b was held down %v after its crash, want within %v", took, bound)
	}
}
