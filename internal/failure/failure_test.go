package failure_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// newWorld is a world whose dapplets run a 10 ms RTO, closed when t ends.
func newWorld(t *testing.T, opts ...netsim.Option) *world.World {
	w := world.New(transport.Config{RTO: 10 * time.Millisecond}, opts...)
	t.Cleanup(w.Close)
	return w
}

// watchPair wires two dapplets to watch each other and returns a channel
// of a's verdicts about b.
func watchPair(a, b *core.Dapplet, cfg failure.Config) (<-chan failure.Event, *failure.Detector, *failure.Detector) {
	da := failure.Attach(a, cfg)
	db := failure.Attach(b, cfg)
	events := make(chan failure.Event, 64)
	da.OnEvent(func(ev failure.Event) {
		if ev.Peer == b.Name() {
			select {
			case events <- ev:
			default:
			}
		}
	})
	da.Watch(b.Name(), b.Addr())
	db.Watch(a.Name(), a.Addr())
	return events, da, db
}

// poll calls cond every millisecond until it holds, for at most d, and
// reports whether it held.
func poll(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return cond()
		}
	}
	return true
}

func awaitState(t *testing.T, events <-chan failure.Event, want failure.State, within time.Duration) failure.Event {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case ev := <-events:
			if ev.State == want {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %v verdict within %v", want, within)
		}
	}
}

func TestDetectorSuspectsThenDownsCrashedPeer(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(1))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	events, da, _ := watchPair(a, b, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2})

	// Let a round of heartbeats establish Up.
	time.Sleep(50 * time.Millisecond)
	if st, ok := da.Status("b"); !ok || st != failure.Up {
		t.Fatalf("status(b) = %v, %v; want up", st, ok)
	}

	w.Net.Crash("hb")
	ev := awaitState(t, events, failure.Suspect, 5*time.Second)
	if ev.Peer != "b" {
		t.Fatalf("suspect peer = %q", ev.Peer)
	}
	awaitState(t, events, failure.Down, 5*time.Second)
	if st, _ := da.Status("b"); st != failure.Down {
		t.Fatalf("status(b) = %v, want down", st)
	}
}

func TestDetectorRecoversAfterRestart(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(2))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	events, da, _ := watchPair(a, b, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2})

	w.Net.Crash("hb")
	awaitState(t, events, failure.Down, 5*time.Second)

	w.Net.Restart("hb")
	awaitState(t, events, failure.Up, 5*time.Second)
	if st, _ := da.Status("b"); st != failure.Up {
		t.Fatalf("status(b) = %v, want up after restart", st)
	}
}

func TestDetectorLearnsReincarnatedAddress(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(3))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	events, da, _ := watchPair(a, b, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2})

	w.Net.Crash("hb")
	awaitState(t, events, failure.Down, 5*time.Second)
	b.Stop()
	w.Net.Restart("hb")

	// A new incarnation of b on a fresh port heartbeats a; a must flip b
	// to Up, report the higher incarnation and learn the new address.
	b2 := w.Dapplet("hb", "test", "b")
	db2 := failure.Attach(b2, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2, Incarnation: 1})
	db2.Watch(a.Name(), a.Addr())

	ev := awaitState(t, events, failure.Up, 5*time.Second)
	if ev.Incarnation != 1 {
		t.Fatalf("incarnation = %d, want 1", ev.Incarnation)
	}
	if addr, _ := da.Addr("b"); addr != b2.Addr() {
		t.Fatalf("learned addr = %v, want %v", addr, b2.Addr())
	}
}

// TestHeartbeatPiggybacking runs two same-length watch windows — one over
// a busy channel (steady application traffic both ways), one idle — and
// asserts the busy pair sent measurably fewer explicit heartbeats while
// never losing the Up verdict: application frames stand in for this
// end's own heartbeats, and the peer hears them through its transport.
func TestHeartbeatPiggybacking(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		window   = 40 * interval
	)
	run := func(t *testing.T, seed int64, busy bool) (hbSent uint64) {
		w := newWorld(t, netsim.WithSeed(seed))
		defer w.Close()
		a := w.Dapplet("ha", "test", "a")
		b := w.Dapplet("hb", "test", "b")
		a.Handle("app", func(*wire.Envelope) {})
		b.Handle("app", func(*wire.Envelope) {})
		events, da, db := watchPair(a, b, failure.Config{Interval: interval, Multiplier: 3})

		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			if busy {
				_ = a.SendDirect(wire.InboxRef{Dapplet: b.Addr(), Inbox: "app"}, "", &wire.Text{S: "tick"})
				_ = b.SendDirect(wire.InboxRef{Dapplet: a.Addr(), Inbox: "app"}, "", &wire.Text{S: "tock"})
			}
			time.Sleep(interval / 2)
		}
		// The channel must have stayed healthy throughout.
		for {
			select {
			case ev := <-events:
				if ev.State == failure.Down {
					t.Fatalf("busy=%v: peer went down during the window", busy)
				}
				continue
			default:
			}
			break
		}
		if st, ok := da.Status("b"); !ok || st == failure.Down {
			t.Fatalf("busy=%v: status(b) = %v %v", busy, st, ok)
		}
		sa, sb := da.Stats(), db.Stats()
		return sa.HeartbeatsSent + sb.HeartbeatsSent
	}

	// The two windows are independent worlds, so they run side by side.
	var idleHB, busyHB uint64
	t.Run("windows", func(t *testing.T) {
		t.Run("idle", func(t *testing.T) {
			t.Parallel()
			idleHB = run(t, 10, false)
		})
		t.Run("busy", func(t *testing.T) {
			t.Parallel()
			busyHB = run(t, 11, true)
		})
	})
	if t.Failed() {
		return
	}
	// ~40 intervals of app traffic both ways should suppress nearly every
	// explicit heartbeat; half the idle pair's count is a generous bound.
	if busyHB > idleHB/2 {
		t.Fatalf("piggybacking saved too little: busy pair sent %d heartbeats, idle pair %d", busyHB, idleHB)
	}
}

func TestUnwatchedPeerIgnored(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(4))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	da := failure.Attach(a, failure.Config{Interval: 10 * time.Millisecond})
	db := failure.Attach(b, failure.Config{Interval: 10 * time.Millisecond})
	db.Watch(a.Name(), a.Addr()) // b heartbeats a, but a does not watch b
	time.Sleep(60 * time.Millisecond)
	if _, ok := da.Status("b"); ok {
		t.Fatal("unwatched peer acquired a status")
	}
	da.Watch(b.Name(), b.Addr())
	da.Unwatch(b.Name())
	if _, ok := da.Status("b"); ok {
		t.Fatal("unwatched peer retained a status")
	}
}

// TestProbeRecoversOneSidedWatch exercises the address-learning probe
// control plane: a watches b, but b does not watch a back, so b never
// heartbeats and a inevitably declares it Down. Before the probes that
// verdict was final — only a heartbeat could lift it, and none would
// ever come. Now the slow svc probe (request and typed reply, carrying
// b's name and incarnation) proves the channel alive and lifts the
// verdict without b ever watching a.
func TestProbeRecoversOneSidedWatch(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(31))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	cfg := failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2}
	da := failure.Attach(a, cfg)
	failure.Attach(b, cfg) // serves "@fail" probes; watches nobody
	events := make(chan failure.Event, 64)
	da.OnEvent(func(ev failure.Event) {
		if ev.Peer == b.Name() {
			select {
			case events <- ev:
			default:
			}
		}
	})
	da.Watch(b.Name(), b.Addr())

	// b sends no heartbeats, so a's verdict decays to Down...
	awaitState(t, events, failure.Down, 10*time.Second)
	// ...and the probe's reply lifts it.
	awaitState(t, events, failure.Up, 10*time.Second)
	if da.Stats().ProbesSent == 0 {
		t.Fatal("verdict lifted without any probe")
	}
}
