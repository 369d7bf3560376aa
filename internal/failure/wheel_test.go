package failure

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newBenchDapplet(name string, ep *netsim.Endpoint) *core.Dapplet {
	return core.NewDapplet(name, "bench", transport.NewSimConn(ep))
}

// drive advances a hand-built wheel tick by tick from its start time.
func drive(h *Host, from, to int64) {
	for k := from; k <= to; k++ {
		h.advance(h.start.Add(time.Duration(k) * h.gran))
	}
}

func TestWheelFiresAtDueTick(t *testing.T) {
	h := newWheel(time.Millisecond)
	var fired atomic.Int32
	tm := &wheelTimer{fire: func(time.Time) time.Duration {
		fired.Add(1)
		return -1 // one-shot
	}}
	h.mu.Lock()
	h.scheduleLocked(tm, h.start.Add(10*h.gran))
	h.mu.Unlock()

	drive(h, 1, 9)
	if fired.Load() != 0 {
		t.Fatalf("timer fired %d ticks early", 10)
	}
	drive(h, 10, 10)
	if fired.Load() != 1 {
		t.Fatal("timer did not fire at its due tick")
	}
	drive(h, 11, 2*wheelSlots)
	if fired.Load() != 1 {
		t.Fatalf("one-shot timer fired %d times", fired.Load())
	}
	if st := h.Stats(); st.Timers != 0 {
		t.Fatalf("%d timers still linked after one-shot fire", st.Timers)
	}
}

func TestWheelPeriodicReschedule(t *testing.T) {
	h := newWheel(time.Millisecond)
	var fired atomic.Int32
	period := 8 * h.gran
	tm := &wheelTimer{fire: func(time.Time) time.Duration {
		fired.Add(1)
		return period
	}}
	h.mu.Lock()
	h.scheduleLocked(tm, h.start.Add(period))
	h.mu.Unlock()
	// Fire-time "now" values land exactly on tick boundaries, so each
	// re-arm lands exactly one period later: 64 ticks = 8 firings.
	drive(h, 1, 64)
	if got := fired.Load(); got != 8 {
		t.Fatalf("periodic timer fired %d times over 64 ticks, want 8", got)
	}
}

func TestWheelCancelBeatsInFlightRearm(t *testing.T) {
	h := newWheel(time.Millisecond)
	tm := &wheelTimer{}
	tm.fire = func(time.Time) time.Duration {
		// Cancel from within the callback: the generation bump must
		// suppress the re-arm this return value asks for.
		h.cancel(tm)
		return h.gran
	}
	h.mu.Lock()
	h.scheduleLocked(tm, h.start.Add(h.gran))
	h.mu.Unlock()
	drive(h, 1, 4)
	if st := h.Stats(); st.Timers != 0 {
		t.Fatal("cancelled timer was re-armed by its in-flight callback")
	}
	if st := h.Stats(); st.Fired != 1 {
		t.Fatalf("timer fired %d times after cancel", st.Fired)
	}
}

// TestWheelDistantTimerSkipped pins the hashed-wheel collision rule: a
// timer whose due tick is a whole revolution away shares a slot with a
// near one but must not fire when the slot is first visited.
func TestWheelDistantTimerSkipped(t *testing.T) {
	h := newWheel(time.Millisecond)
	var near, far atomic.Int32
	tNear := &wheelTimer{fire: func(time.Time) time.Duration { near.Add(1); return -1 }}
	tFar := &wheelTimer{fire: func(time.Time) time.Duration { far.Add(1); return -1 }}
	h.mu.Lock()
	h.scheduleLocked(tNear, h.start.Add(5*h.gran))
	h.scheduleLocked(tFar, h.start.Add(time.Duration(5+wheelSlots)*h.gran))
	h.mu.Unlock()
	drive(h, 1, wheelSlots-1)
	if near.Load() != 1 || far.Load() != 0 {
		t.Fatalf("first revolution: near fired %d (want 1), far fired %d (want 0)", near.Load(), far.Load())
	}
	drive(h, wheelSlots, wheelSlots+5)
	if far.Load() != 1 {
		t.Fatal("distant timer did not fire on its own revolution")
	}
}

// TestHeartbeatRoundAllocs guards the satellite fix: the heartbeat
// round's target collection must reuse the detector's scratch buffer, so
// a round over peers whose channels are all busy (nothing to send)
// allocates nothing at all.
func TestHeartbeatRoundAllocs(t *testing.T) {
	det := &Detector{
		cfg:    Config{}.withDefaults(),
		peers:  make(map[string]*peerState),
		byAddr: make(map[netsim.Addr]*peerState),
	}
	now := time.Now()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("p%d", i)
		p := &peerState{name: name, addr: netsim.Addr{Host: "h", Port: uint16(i)},
			state: Up, lastHeard: now, lastSent: now, lastHB: now}
		det.peers[name] = p
	}
	// Warm the scratch buffer through one all-idle round shape.
	det.mu.Lock()
	det.scratchHB = append(det.scratchHB[:0], make([]wire.InboxRef, 1000)...)
	det.mu.Unlock()
	allocs := testing.AllocsPerRun(16, func() {
		det.fireHeartbeats(time.Now())
	})
	if allocs > 0 {
		t.Fatalf("suppressed heartbeat round allocated %.1f objects/tick at 1k peers, want 0", allocs)
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
	net := netsim.New(netsim.WithSeed(1))
	defer net.Close()
	epA, err := net.Host("bench").BindAny()
	if err != nil {
		b.Fatal(err)
	}
	epB, err := net.Host("peerhost").BindAny()
	if err != nil {
		b.Fatal(err)
	}
	d := newBenchDapplet("bench", epA)
	defer d.Stop()
	sink := newBenchDapplet("sink", epB)
	defer sink.Stop()
	Attach(sink, Config{Interval: time.Hour})
	det := Attach(d, Config{Interval: time.Hour}) // rounds driven by hand
	for i := 0; i < 1000; i++ {
		det.Watch(fmt.Sprintf("p%d", i), sink.Addr())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.fireHeartbeats(time.Now())
	}
}
