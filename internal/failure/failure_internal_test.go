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

// TestHeartbeatRoundAllocs checks that the heartbeat round collects its
// targets in the machine's reused buffer, so a round over peers
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
	det := Attach(d, Config{Interval: time.Hour}) // rounds driven by hand
	for i := 0; i < 1000; i++ {
		det.Watch(fmt.Sprintf("p%d", i), sink.Addr())
	}
	now := time.Now()
	det.mu.Lock()
	for _, p := range det.m.peers {
		p.lastHB = now
	}
	det.mu.Unlock()
	if err := d.SendDirect(wire.InboxRef{Dapplet: sink.Addr(), Inbox: "x"}, "", &wire.Text{S: "busy"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sink.DeadLetters() == 0 || d.Transport().QueueDepth() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the busy frame: %d delivered, %d unacknowledged after 5 s", sink.DeadLetters(), d.Transport().QueueDepth())
		}
	}
	// Warm the machine's target buffer through one all-idle round shape.
	det.mu.Lock()
	det.m.beats = append(det.m.beats[:0], make([]netsim.Addr, 1000)...)
	det.mu.Unlock()
	allocs := testing.AllocsPerRun(16, det.heartbeatRound)
	if allocs > 0 {
		t.Fatalf("suppressed heartbeat round allocated %.1f objects/round at 1k peers, want 0", allocs)
	}
	if n := det.Stats().HeartbeatsSent; n != 0 {
		t.Fatalf("%d heartbeats sent over a busy channel", n)
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
		det.heartbeatRound()
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
		det.heartbeatRound()
	}
	if got := det.hbSent.Load(); got != rounds {
		t.Fatalf("%d back-to-back rounds over an idle channel sent %d heartbeats, want %d", rounds, got, rounds)
	}
	if err := d.SendDirect(wire.InboxRef{Dapplet: sink.Addr(), Inbox: "app"}, "", &wire.Text{S: "traffic"}); err != nil {
		t.Fatal(err)
	}
	det.heartbeatRound()
	if got := det.hbSent.Load(); got != rounds {
		t.Fatalf("a round after an application frame sent a heartbeat (%d sent, want %d)", got, rounds)
	}
}

// TestIndirectProbeTrafficIsHeard: the sender's transport counts every
// frame to a peer, an indirect probe or its reply included, toward
// suppressing the next heartbeat (Reliable.LastSent), so the peer must
// count each as hearing from the sender. After a heartbeat, one such
// frame suppresses the next heartbeat, and its arrival moves the peer's
// liveness record of the sender (verdicts.heard: the later of its last
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
				return pdet.m.heard(pdet.m.peers["d"], peer.Transport())
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
			det.heartbeatRound()
			if got := det.hbSent.Load(); got != 1 {
				t.Fatalf("a round over an idle channel sent %d heartbeats, want 1", got)
			}
			last := awaitHeard(watched, "a heartbeat")
			if err := d.SendDirect(wire.InboxRef{Dapplet: peer.Addr(), Inbox: ControlInbox}, "", msg); err != nil {
				t.Fatal(err)
			}
			det.heartbeatRound()
			if got := det.hbSent.Load(); got != 1 {
				t.Fatalf("a round after %s sent a heartbeat (%d sent, want 1)", msg.Kind(), got)
			}
			awaitHeard(last, msg.Kind())
		})
	}
}

// TestDetectorUnderCoalescedTransport: the transport coalesces, but never
// holds a frame for a clock: a heartbeat to a quiet peer is written when
// it is sent (carrying the ack the peer's last heartbeat is owed), so
// interarrival stays crisp with no flush after the fan-out round. On the
// machines, fed that arrival pattern (each heartbeat arriving one delay
// after its round, bare acks hearing nothing), the verdict holds Up
// without a wobble; over netsim, heartbeats carry the acks their peers
// are owed and a real crash is still detected.
func TestDetectorUnderCoalescedTransport(t *testing.T) {
	t.Run("steady", func(t *testing.T) {
		w := &vworld{now: epoch, interval: 10 * ms, delay: 200 * time.Microsecond}
		a, b := w.node("a", 2), w.node("b", 2)
		w.watch(a, b)
		w.watch(b, a)
		w.run(50 * ms) // a round of heartbeats establishes Up
		if st := a.m.peers["b"].state; st != Up {
			t.Fatalf("a's verdict on b = %v; want up", st)
		}
		w.run(300 * ms) // steady state: several heartbeat rounds
		if len(a.events)+len(b.events) != 0 || a.hbs < 30 || b.hbs < 30 {
			t.Fatalf("verdicts wobbled under coalescing: a %v, b %v (%d and %d heartbeats)", a.events, b.events, a.hbs, b.hbs)
		}
	})
	t.Run("netsim", func(t *testing.T) {
		w := world.New(transport.Config{}, netsim.WithSeed(7))
		t.Cleanup(w.Close)
		a, b := w.Dapplet("ha", "test", "a"), w.Dapplet("hb", "test", "b")
		cfg := Config{Interval: 10 * time.Millisecond, Multiplier: 2}
		da, db := Attach(a, cfg), Attach(b, cfg)
		downs := make(chan struct{}, 64)
		da.OnEvent(func(ev Event) {
			if ev.State == Down {
				downs <- struct{}{}
			}
		})
		da.Watch(b.Name(), b.Addr())
		db.Watch(a.Name(), a.Addr())
		for deadline := time.Now().Add(5 * time.Second); a.Transport().Stats().AcksPiggybacked == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("no heartbeat carried the ack its peer was owed: %+v", a.Transport().Stats())
			}
		}
		w.Net.Crash("hb")
		select {
		case <-downs:
		case <-time.After(5 * time.Second):
			t.Fatal("no down verdict within 5s of the crash")
		}
	})
}
