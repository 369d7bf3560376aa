package failure_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// The liveness tests check what a watcher hears on a busy channel, where
// application frames, read from the transport, stand in for heartbeats.

// sendApp sends one frame from "from" to to's "app" inbox.
func sendApp(from, to *core.Dapplet) {
	_ = from.SendDirect(wire.InboxRef{Dapplet: to.Addr(), Inbox: "app"}, "", &wire.Text{S: "tick"})
}

// streamApp sends a frame from each pair's first dapplet to its second
// every gap, from a goroutine of its own, until the test ends.
func streamApp(t *testing.T, gap time.Duration, pairs ...[2]*core.Dapplet) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, p := range pairs {
				sendApp(p[0], p[1])
			}
			select {
			case <-stop:
				return
			case <-time.After(gap):
			}
		}
	}()
	t.Cleanup(func() { close(stop); wg.Wait() })
}

// A restarted peer that streams to its watcher from its new port, while
// the watcher's application streams back, announces its new address and
// incarnation in its first heartbeat round: the first round after a Watch
// always heartbeats, however busy the channel. Nothing else would tell
// the watcher, which holds the old incarnation Down and probes the old
// address, and the restarted peer, hearing the watcher's frames, never
// suspects it. Only a stall of the stream for a whole interval would let
// a later round heartbeat, so the watcher must hear within 20 intervals.
func TestReincarnatedPeerAnnouncesWhileStreaming(t *testing.T) {
	const interval = 50 * time.Millisecond
	cfg := failure.Config{Interval: interval, Multiplier: 2}
	w := newWorld(t, netsim.WithSeed(42))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	a.Handle("app", func(*wire.Envelope) {})
	events, da, _ := watchPair(a, b, cfg)
	w.Net.Crash("hb")
	awaitState(t, events, failure.Down, 5*time.Second)
	b.Stop()
	w.Net.Restart("hb")

	b2 := w.Dapplet("hb", "test", "b")
	b2.Handle("app", func(*wire.Envelope) {})
	streamApp(t, interval/10, [2]*core.Dapplet{b2, a}, [2]*core.Dapplet{a, b2})
	cfg.Incarnation = 1
	failure.Attach(b2, cfg).Watch(a.Name(), a.Addr())

	ev := awaitState(t, events, failure.Up, 20*interval)
	if ev.Incarnation != 1 {
		t.Fatalf("incarnation = %d, want 1", ev.Incarnation)
	}
	if addr, _ := da.Addr("b"); addr != b2.Addr() {
		t.Fatalf("learned addr = %v, want %v", addr, b2.Addr())
	}
}

// A watcher holding a peer Down across a healed partition, while the
// peer streams to it, returns the peer to Up through its probe: frames
// never lift Down. The peer does not watch back, so it sends no
// heartbeat: before the partition the watcher holds it Up on its
// frames alone. The partition is healed as soon as the verdict is Down,
// well before any frame runs out of retransmissions.
func TestDownLiftedWhileStreaming(t *testing.T) {
	const interval = 10 * time.Millisecond
	w := newWorld(t, netsim.WithSeed(43))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	a.Handle("app", func(*wire.Envelope) {})
	cfg := failure.Config{Interval: interval, Multiplier: 2}
	da := failure.Attach(a, cfg)
	failure.Attach(b, cfg) // serves a's probes; watches nobody
	events := make(chan failure.Event, 64)
	da.OnEvent(func(ev failure.Event) { events <- ev })
	streamApp(t, interval/4, [2]*core.Dapplet{b, a})
	da.Watch(b.Name(), b.Addr())
	time.Sleep(10 * interval)
	w.Net.Partition([]string{"ha"}, []string{"hb"})
	awaitState(t, events, failure.Down, 5*time.Second)
	w.Net.Heal()
	awaitState(t, events, failure.Up, 5*time.Second)
	if da.Stats().ProbesSent == 0 {
		t.Fatal("a lifted its down verdict on b without a probe")
	}
}

// A watched pair cut until each end has given up a frame the other
// never saw, then healed, reads Up again at both ends within two probe
// periods of the heal: the transport's floor lets the frames after the
// heal through. Without it every later frame, probes included, waits
// behind the abandoned ones, and Down never lifts. The periods are
// counted in probes, not read off the clock, so a stalled process
// cannot fail the test.
func TestDetectorHealsAfterGiveUp(t *testing.T) {
	const interval = 20 * time.Millisecond
	w := world.New(transport.Config{RTO: 10 * time.Millisecond, MaxRetries: 3}, netsim.WithSeed(44))
	t.Cleanup(w.Close)
	a, b := w.Dapplet("ha", "test", "a"), w.Dapplet("hb", "test", "b")
	_, da, db := watchPair(a, b, failure.Config{Interval: interval, Multiplier: 2})
	states := func() (failure.State, failure.State) {
		sa, _ := da.Status(b.Name())
		sb, _ := db.Status(a.Name())
		return sa, sb
	}
	ta, tb := a.Transport(), b.Transport()
	if !poll(5*time.Second, func() bool { return ta.Stats().Delivered > 0 && tb.Stats().Delivered > 0 }) {
		t.Fatal("no heartbeat arrived before the cut")
	}
	w.Net.Partition([]string{"ha"}, []string{"hb"})
	// Cut until both ends hold each other Down and have each given up
	// more frames than they had in flight at the cut: at least one frame
	// the peer never saw, which nothing will retransmit.
	fa, fb := ta.Stats().Failures+uint64(ta.QueueDepth()), tb.Stats().Failures+uint64(tb.QueueDepth())
	if !poll(10*time.Second, func() bool {
		sa, sb := states()
		return sa == failure.Down && sb == failure.Down && ta.Stats().Failures > fa && tb.Stats().Failures > fb
	}) {
		sa, sb := states()
		t.Fatalf("cut pair: a reads b %v, b reads a %v; a %+v, b %+v", sa, sb, ta.Stats(), tb.Stats())
	}
	// One probe is in flight per Down peer, so a third probe started
	// after the heal means the two before it have come back or timed out.
	pa, pb := da.Stats().ProbesSent, db.Stats().ProbesSent
	w.Net.Heal()
	settled := func(s failure.State, det *failure.Detector, before uint64) bool {
		return s == failure.Up || det.Stats().ProbesSent >= before+3
	}
	poll(time.Minute, func() bool { sa, sb := states(); return settled(sa, da, pa) && settled(sb, db, pb) })
	if sa, sb := states(); sa != failure.Up || sb != failure.Up {
		t.Fatalf("two probe periods after the heal a reads b %v and b reads a %v, want both up; a %+v, b %+v",
			sa, sb, ta.Stats(), tb.Stats())
	}
}
