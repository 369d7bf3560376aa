package failure

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// TestStaleIncarnationHeartbeatIgnored pins the incarnation ordering: a
// delayed beacon from a dead incarnation (lower Inc) must not revert
// the learned address or lift a Down verdict.
func TestStaleIncarnationHeartbeatIgnored(t *testing.T) {
	det := &Detector{
		cfg:   Config{Interval: time.Second, Multiplier: 2}.withDefaults(),
		peers: make(map[string]*peerState),
	}
	newAddr := netsim.Addr{Host: "new", Port: 2}
	// The verdict timer does nothing: this detector has no dapplet, and
	// the test drives applyBeacon by hand.
	inert := time.AfterFunc(time.Hour, func() {})
	t.Cleanup(func() { inert.Stop() })
	det.peers["p"] = &peerState{name: "p", addr: newAddr, state: Down, lastInc: 2, lastBeacon: time.Now(), timer: inert}

	det.applyBeacon("p", 1, 0, netsim.Addr{Host: "old", Port: 1})
	p := det.peers["p"]
	if p.state != Down {
		t.Fatalf("stale beacon lifted the Down verdict (state=%v)", p.state)
	}
	if p.addr != newAddr || p.lastInc != 2 {
		t.Fatalf("stale beacon reverted peer identity: addr=%v inc=%d", p.addr, p.lastInc)
	}

	// The current incarnation's beacon does lift it and resets the
	// rhythm estimators (the outage gap is not a rhythm sample).
	p.meanIA, p.devIA = time.Minute, time.Minute
	det.applyBeacon("p", 2, 0, newAddr)
	if p.state != Up {
		t.Fatalf("current beacon did not lift the verdict (state=%v)", p.state)
	}
	if p.meanIA != 0 || p.devIA != 0 {
		t.Fatalf("recovery did not reset interarrival estimators (mean=%v dev=%v)", p.meanIA, p.devIA)
	}
}

// TestHeartbeatRoundAllocs checks that the heartbeat round collects its
// targets in the detector's reused scratch buffer, so a round over peers
// whose channels are all busy (nothing to send) allocates nothing. The
// 1000 peers share one address, which a frame sent after their last
// heartbeat keeps busy. AllocsPerRun counts every goroutine's
// allocations, so the frame's delivery and its ack, which allocate on
// both receive goroutines (a first contact builds the peer's state),
// are awaited before the rounds are counted; rounds are driven by hand,
// so the interval is long enough that no round finds the frame stale.
func TestHeartbeatRoundAllocs(t *testing.T) {
	w := world.New(transport.Config{}, netsim.WithSeed(1))
	t.Cleanup(w.Close)
	d, sink := w.Dapplet("h", "bench", "d"), w.Dapplet("s", "bench", "sink")
	det := &Detector{
		d:      d,
		cfg:    Config{Interval: time.Hour}.withDefaults(),
		peers:  make(map[string]*peerState),
		byAddr: make(map[netsim.Addr]*peerState),
	}
	now := time.Now()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("p%d", i)
		p := &peerState{name: name, addr: sink.Addr(), state: Up, lastBeacon: now, lastHB: now}
		det.peers[name] = p
	}
	if err := d.SendDirect(wire.InboxRef{Dapplet: sink.Addr(), Inbox: "x"}, "", &wire.Text{S: "busy"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sink.DeadLetters() == 0 || d.Transport().QueueDepth() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the busy frame: %d delivered, %d unacknowledged after 5 s", sink.DeadLetters(), d.Transport().QueueDepth())
		}
	}
	// Warm the scratch buffer through one all-idle round shape.
	det.mu.Lock()
	det.scratchHB = append(det.scratchHB[:0], make([]wire.InboxRef, 1000)...)
	det.mu.Unlock()
	allocs := testing.AllocsPerRun(16, func() {
		det.heartbeatRound(time.Now())
	})
	if allocs > 0 {
		t.Fatalf("suppressed heartbeat round allocated %.1f objects/round at 1k peers, want 0", allocs)
	}
}

// BenchmarkHeartbeatFanout measures one heartbeat round over 1k idle
// peers — the per-Interval cost a watcher of 1k silent peers pays. All
// peer names resolve to one live acking dapplet so the reliable layer's
// window drains and the loop measures steady-state transmit cost. The
// reported allocs/op are the per-send transmit-path allocations only;
// the round's own bookkeeping is alloc-free (see
// TestHeartbeatRoundAllocs).
func BenchmarkHeartbeatFanout(b *testing.B) {
	w := world.New(transport.Config{}, netsim.WithSeed(1))
	defer w.Close()
	d := w.Dapplet("bench", "bench", "bench")
	sink := w.Dapplet("peerhost", "bench", "sink")
	Attach(sink, Config{Interval: time.Hour})
	det := Attach(d, Config{Interval: time.Hour}) // rounds driven by hand
	for i := 0; i < 1000; i++ {
		det.Watch(fmt.Sprintf("p%d", i), sink.Addr())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.heartbeatRound(time.Now())
	}
}

// TestOwnHeartbeatIsNotTraffic: the transport's LastSent counts every
// frame to the peer, the detector's own heartbeats included, but only a
// frame sequenced after the round that sent the last heartbeat
// suppresses the next one. Rounds driven back to back each send one; an
// application frame after them suppresses the next.
func TestOwnHeartbeatIsNotTraffic(t *testing.T) {
	w := world.New(transport.Config{}, netsim.WithSeed(1))
	t.Cleanup(w.Close)
	d, sink := w.Dapplet("h", "test", "d"), w.Dapplet("s", "test", "sink")
	det := Attach(d, Config{Interval: time.Hour}) // rounds driven by hand
	det.Watch("sink", sink.Addr())
	const rounds = 5
	for range rounds {
		det.heartbeatRound(time.Now())
	}
	if got := det.hbSent.Load(); got != rounds {
		t.Fatalf("%d back-to-back rounds over an idle channel sent %d heartbeats, want %d", rounds, got, rounds)
	}
	if err := d.SendDirect(wire.InboxRef{Dapplet: sink.Addr(), Inbox: "app"}, "", &wire.Text{S: "traffic"}); err != nil {
		t.Fatal(err)
	}
	det.heartbeatRound(time.Now())
	if got := det.hbSent.Load(); got != rounds {
		t.Fatalf("a round after an application frame sent a heartbeat (%d sent, want %d)", got, rounds)
	}
}

// TestIndirectProbeTrafficIsHeard: the sender's transport counts every
// frame to a peer, an indirect probe or its reply included, toward
// suppressing the next heartbeat (Reliable.LastSent), so the peer must
// count each as hearing from the sender. After a heartbeat, one such
// frame suppresses the next heartbeat, and its arrival moves the peer's
// liveness record of the sender (heardLocked: the later of its last
// beacon and the transport's LastHeard).
func TestIndirectProbeTrafficIsHeard(t *testing.T) {
	for _, msg := range []wire.Msg{
		&iprobeMsg{Target: "nobody", Host: "nowhere", Port: 1, From: "d"},
		&iprobeRepMsg{Target: "nobody", Relay: "d"},
	} {
		t.Run(msg.Kind(), func(t *testing.T) {
			w := world.New(transport.Config{}, netsim.WithSeed(1))
			t.Cleanup(w.Close)
			d, peer := w.Dapplet("h", "test", "d"), w.Dapplet("p", "test", "peer")
			// Rounds are driven by hand.
			det := Attach(d, Config{Interval: time.Hour})
			det.Watch("peer", peer.Addr())
			pdet := Attach(peer, Config{Interval: time.Hour})
			pdet.Watch("d", d.Addr())
			heard := func() time.Time {
				pdet.mu.Lock()
				defer pdet.mu.Unlock()
				return pdet.heardLocked(pdet.peers["d"])
			}
			awaitHeard := func(after time.Time, what string) time.Time {
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					if h := heard(); h.After(after) {
						return h
					}
					if time.Now().After(deadline) {
						t.Fatalf("the peer never counted %s as hearing from d", what)
					}
				}
			}
			watched := heard() // Watch's grace window starts here
			det.heartbeatRound(time.Now())
			if got := det.hbSent.Load(); got != 1 {
				t.Fatalf("a round over an idle channel sent %d heartbeats, want 1", got)
			}
			last := awaitHeard(watched, "a heartbeat")
			if err := d.SendDirect(wire.InboxRef{Dapplet: peer.Addr(), Inbox: ControlInbox}, "", msg); err != nil {
				t.Fatal(err)
			}
			det.heartbeatRound(time.Now())
			if got := det.hbSent.Load(); got != 1 {
				t.Fatalf("a round after %s sent a heartbeat (%d sent, want 1)", msg.Kind(), got)
			}
			awaitHeard(last, msg.Kind())
		})
	}
}
