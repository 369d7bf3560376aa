package failure

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
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
	det.peers["p"] = &peerState{name: "p", addr: newAddr, state: Down, lastInc: 2, lastHeard: time.Now(), timer: inert}

	det.applyBeacon("p", 1, netsim.Addr{Host: "old", Port: 1})
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
	det.applyBeacon("p", 2, newAddr)
	if p.state != Up {
		t.Fatalf("current beacon did not lift the verdict (state=%v)", p.state)
	}
	if p.meanIA != 0 || p.devIA != 0 {
		t.Fatalf("recovery did not reset interarrival estimators (mean=%v dev=%v)", p.meanIA, p.devIA)
	}
}

// TestHeartbeatRoundAllocs checks that the heartbeat round collects its
// targets in the detector's reused scratch buffer, so a round over peers
// whose channels are all busy (nothing to send) allocates nothing.
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
	d := core.NewDapplet("bench", "bench", transport.NewSimConn(epA))
	defer d.Stop()
	sink := core.NewDapplet("sink", "bench", transport.NewSimConn(epB))
	defer sink.Stop()
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
