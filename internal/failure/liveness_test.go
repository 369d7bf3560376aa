package failure_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/wire"
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

// A pair that streams both ways for 40 intervals, in bursts as an
// application does, hears each other through the transport. When one
// crashes the survivor holds it Down within (2·Multiplier + 1)·Interval:
// the detection time is Multiplier × Interval from the last frame heard,
// stretched only by the jitter of heartbeats of consecutive rounds, never
// by the pauses between bursts, across which heartbeat rounds were
// suppressed.
func TestBusyPairThenCrash(t *testing.T) {
	const (
		interval = 100 * time.Millisecond
		mult     = 2
	)
	w := newWorld(t, netsim.WithSeed(41))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	a.Handle("app", func(*wire.Envelope) {})
	b.Handle("app", func(*wire.Envelope) {})
	events, da, _ := watchPair(a, b, failure.Config{Interval: interval, Multiplier: mult})

	// Bursts of three intervals with a frame each way every quarter
	// interval, then a pause of two and a half, in which heartbeats flow.
	for start := time.Now(); time.Since(start) < 40*interval; {
		for burst := time.Now(); time.Since(burst) < 3*interval; time.Sleep(interval / 4) {
			sendApp(a, b)
			sendApp(b, a)
		}
		time.Sleep(5 * interval / 2)
	}
	for burst := time.Now(); time.Since(burst) < interval; time.Sleep(interval / 4) {
		sendApp(a, b)
		sendApp(b, a)
	}
	if st, _ := da.Status(b.Name()); st == failure.Down {
		t.Fatal("b went down while the pair streamed")
	}
	crash := time.Now()
	w.Net.Crash("hb")
	awaitState(t, events, failure.Down, 5*time.Second)
	if took, bound := time.Since(crash), (2*mult+1)*interval; took > bound {
		t.Fatalf("b was held down %v after its crash, want within %v", took, bound)
	}
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
