package failure_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/netsim"
)

// The timer tests check the detector's runtime timers, one verdict timer
// per watched peer and one heartbeat-round timer per detector: that they
// hold no goroutine while they wait, that a slow observer cannot stall
// heartbeats, and that Stop silences them for good.

// detectorGoroutines returns the stack of every goroutine with a frame in
// this package's code.
func detectorGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		// Frames only: a "created by" line names where a goroutine began.
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "repro/internal/failure.") {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// awaitNoDetectorGoroutine waits until no goroutine runs detector code.
func awaitNoDetectorGoroutine(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		gs := detectorGoroutines()
		if len(gs) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines still in detector code:\n\n%s", what, strings.Join(gs, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDetectorNoGoroutineWhileIdle checks that a detector parks no
// goroutine of its own: with eight dapplets watching each other and every
// verdict Up, there are moments when no goroutine has a frame in the
// detector's code, and after Stop that stays so.
func TestDetectorNoGoroutineWhileIdle(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(5))
	cfg := failure.Config{Interval: 10 * time.Millisecond, Multiplier: 3}
	var ds []*core.Dapplet
	var dets []*failure.Detector
	for i := range 8 {
		d := w.Dapplet(fmt.Sprintf("h%d", i), "test", fmt.Sprintf("d%d", i))
		ds = append(ds, d)
		dets = append(dets, failure.Attach(d, cfg))
	}
	for i, det := range dets {
		for j, d := range ds {
			if i != j {
				det.Watch(d.Name(), d.Addr())
			}
		}
	}
	time.Sleep(5 * cfg.Interval) // a few heartbeat rounds and verdict checks
	for i, det := range dets {
		for j, d := range ds {
			if st, ok := det.Status(d.Name()); i != j && (!ok || st != failure.Up) {
				t.Fatalf("d%d's verdict on %s = %v, %v; want up", i, d.Name(), st, ok)
			}
		}
	}
	awaitNoDetectorGoroutine(t, "idle")
	for _, d := range ds {
		d.Stop()
	}
	awaitNoDetectorGoroutine(t, "after Stop")
}

// TestSlowObserverKeepsHeartbeats checks that an observer blocked in a
// verdict does not stop its detector's heartbeats. A watches B and C, and
// B watches A. A's observer blocks for ten intervals on its first event,
// the Suspect that follows C's crash; all that time A must go on
// heartbeating B, so B never suspects A.
func TestSlowObserverKeepsHeartbeats(t *testing.T) {
	const interval = 10 * time.Millisecond
	w := newWorld(t, netsim.WithSeed(6))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	c := w.Dapplet("hc", "test", "c")
	cfg := failure.Config{Interval: interval, Multiplier: 3}
	da, db, dc := failure.Attach(a, cfg), failure.Attach(b, cfg), failure.Attach(c, cfg)

	blocked, released := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	da.OnEvent(func(failure.Event) {
		if first.CompareAndSwap(false, true) {
			close(blocked)
			time.Sleep(10 * interval)
			close(released)
		}
	})
	aVerdicts := make(chan failure.Event, 64)
	db.OnEvent(func(ev failure.Event) {
		if ev.Peer == a.Name() {
			select {
			case aVerdicts <- ev:
			default:
			}
		}
	})
	da.Watch(b.Name(), b.Addr())
	da.Watch(c.Name(), c.Addr())
	db.Watch(a.Name(), a.Addr())
	dc.Watch(a.Name(), a.Addr())
	time.Sleep(5 * interval) // establish the heartbeat rhythm

	w.Net.Crash("hc")
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("A reported nothing about C's crash")
	}
	for len(aVerdicts) > 0 { // B's verdicts from before the block began
		<-aVerdicts
	}
	<-released
	for len(aVerdicts) > 0 {
		if ev := <-aVerdicts; ev.State != failure.Up {
			t.Fatalf("B's verdict on A went %v while A's observer was blocked", ev.State)
		}
	}
}

// TestDetectorStopSilencesTimers checks that Stop silences the
// detector's timers for good. A's watched peer falls silent just before
// A stops, so live timers would both heartbeat and emit Suspect and Down
// within twenty intervals; after Stop returns, neither may happen. Then
// 500 detectors stop while their timers fall due: a jittered delay
// around the 250µs interval meets callbacks before, while and after they
// run, and under -race this guards the order of a callback's admission
// against Stop's wait.
func TestDetectorStopSilencesTimers(t *testing.T) {
	const interval = 5 * time.Millisecond
	w := newWorld(t, netsim.WithSeed(8))
	a := w.Dapplet("ha", "test", "a")
	b := w.Dapplet("hb", "test", "b")
	cfg := failure.Config{Interval: interval, Multiplier: 2}
	da, db := failure.Attach(a, cfg), failure.Attach(b, cfg)
	var events atomic.Int64
	da.OnEvent(func(failure.Event) { events.Add(1) })
	da.Watch(b.Name(), b.Addr())
	db.Watch(a.Name(), a.Addr())
	time.Sleep(10 * interval)
	w.Net.Crash("hb")
	a.Stop()
	sent, emitted := da.Stats().HeartbeatsSent, events.Load()
	if sent == 0 {
		t.Fatal("no heartbeat sent before Stop")
	}
	time.Sleep(20 * interval)
	if n := da.Stats().HeartbeatsSent; n != sent {
		t.Fatalf("%d heartbeats sent after Stop", n-sent)
	}
	if n := events.Load(); n != emitted {
		t.Fatalf("%d events emitted after Stop", n-emitted)
	}

	type stopped struct {
		det     *failure.Detector
		events  *atomic.Int64
		sent    uint64 // heartbeats sent when Stop returned
		emitted int64  // events emitted when Stop returned
	}
	var all []stopped
	nowhere := netsim.Addr{Host: "nowhere", Port: 1}
	for i := range 500 {
		d := w.Dapplet("hr", "test", fmt.Sprintf("r%d", i))
		det := failure.Attach(d, failure.Config{Interval: 250 * time.Microsecond, Multiplier: 1})
		ev := new(atomic.Int64)
		det.OnEvent(func(failure.Event) { ev.Add(1) })
		det.Watch("peer", nowhere)
		// Spin rather than sleep: a sleep this short overshoots to about
		// a millisecond, past every timer's first firing.
		for start := time.Now(); time.Since(start) < time.Duration(i%9)*60*time.Microsecond; {
			runtime.Gosched()
		}
		d.Stop()
		all = append(all, stopped{det, ev, det.Stats().HeartbeatsSent, ev.Load()})
	}
	time.Sleep(20 * time.Millisecond)
	for i, s := range all {
		if n := s.det.Stats().HeartbeatsSent; n != s.sent {
			t.Fatalf("detector %d: %d heartbeats sent after Stop", i, n-s.sent)
		}
		if n := s.events.Load(); n != s.emitted {
			t.Fatalf("detector %d: %d events emitted after Stop", i, n-s.emitted)
		}
	}
}
