package failure_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// A verdict change never waits for an observer: while one runs, later
// changes are made at once and their events queue behind it, in order.
// In both tests the watched peers run no detector, so they never
// heartbeat and every watch runs out.

// blockFirst registers an observer on det that blocks in its first
// event until release is closed; blocked is closed when it starts
// blocking. Every event goes on the returned channel.
func blockFirst(det *failure.Detector) (events chan failure.Event, blocked, release chan struct{}) {
	events = make(chan failure.Event, 64) // more than either test's peers make: the observer never waits on it
	blocked, release = make(chan struct{}), make(chan struct{})
	first := true
	det.OnEvent(func(ev failure.Event) {
		events <- ev
		if first {
			first = false
			close(blocked)
			<-release
		}
	})
	return events, blocked, release
}

// An application frame from a Suspect peer lifts the verdict at the next
// heartbeat round, within two rounds (2·Interval) of its delivery, though
// an observer is still busy with an earlier event; the Up event follows
// that event. Rounds are counted by the heartbeats a sends b, one a
// round while b is not Down, so a stalled process cannot fail the test:
// the second round after the delivery has made its lift before it sends.
// b's transport acknowledges those heartbeats, but a bare ack is not
// hearing from b.
func TestSuspectLiftsBehindBlockedObserver(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(11))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	det := failure.Attach(a, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 3})
	events, blocked, release := blockFirst(det)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	det.Watch(b.Name(), b.Addr())
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("b was never suspected")
	}
	if ev := <-events; ev.State != failure.Suspect {
		t.Fatalf("first verdict on b: %v, want suspect", ev.State)
	}
	app := a.Inbox("app")
	if err := b.SendDirect(app.Ref(), "", &wire.Text{S: "alive"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := app.ReceiveContext(ctx); err != nil {
		t.Fatal(err)
	}
	delivered := det.Stats().HeartbeatsSent
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rounds := det.Stats().HeartbeatsSent - delivered
		st, _ := det.Status(b.Name())
		if st == failure.Up {
			break
		}
		if rounds >= 2 || time.Now().After(deadline) {
			t.Fatalf("b is %v %d heartbeat rounds after its frame was delivered, want up", st, rounds)
		}
	}
	close(release)
	select {
	case ev := <-events:
		if ev.State != failure.Up {
			t.Fatalf("the verdict after suspect: %v, want up", ev.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no up event")
	}
}

// A second peer's window runs out while the observer is busy with the
// first peer's Suspect: its verdict moves on time, and its events follow.
func TestVerdictsAdvanceBehindBlockedObserver(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(12))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	c := w.Dapplet("hc", "test", "c")
	const interval = 10 * time.Millisecond
	det := failure.Attach(a, failure.Config{Interval: interval, Multiplier: 3})
	events, blocked, release := blockFirst(det)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	det.Watch(b.Name(), b.Addr())
	det.Watch(c.Name(), c.Addr())
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("nobody was suspected")
	}
	first := (<-events).Peer
	other := b.Name()
	if first == other {
		other = c.Name()
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(interval) {
		if st, _ := det.Status(other); st == failure.Down {
			break
		}
		if time.Now().After(deadline) {
			st, _ := det.Status(other)
			t.Fatalf("%s is %v two seconds after its window ran out, with the observer busy", other, st)
		}
	}
	close(release)
	var seen []failure.State
	for len(seen) < 2 {
		select {
		case ev := <-events:
			if ev.Peer == other {
				seen = append(seen, ev.State)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s's events after the observer returned: %v", other, seen)
		}
	}
	if seen[0] != failure.Suspect || seen[1] != failure.Down {
		t.Fatalf("%s's events: %v, want suspect then down", other, seen)
	}
}
