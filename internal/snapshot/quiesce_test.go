package snapshot_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/snapshot"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// TestIdleArrivalAllocs: with no snapshot run in progress, the service
// costs an arrival nothing. A message is encoded as channel state only
// while a run records its channel, so one Send plus one ReceiveEnvelope
// to a snapshot-attached dapplet allocates what it does without the
// service: the decoded envelope and its body.
func TestIdleArrivalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	sim := newWorld(t)
	src := sim.Dapplet("a", "pair", "src")
	dst := sim.Dapplet("b", "pair", "dst")
	snapshot.Attach(dst, func() any { return nil }).SetPeers([]snapshot.Member{{Name: "src", Addr: src.Addr()}})
	in := dst.Inbox("in")
	out := src.Outbox("out")
	out.Add(in.Ref())
	msg := &wire.Bytes{B: make([]byte, 64)}
	roundTrip := func() {
		if err := out.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := in.ReceiveEnvelope(); err != nil {
			t.Fatal(err)
		}
	}
	for range 2000 { // warm the pools, the free list and the decoder
		roundTrip()
	}
	const budget = 2
	allocs := testing.AllocsPerRun(2000, roundTrip)
	t.Logf("%.2f allocations per message", allocs)
	if allocs > budget {
		t.Fatalf("one message to a snapshot-attached dapplet allocates %.2f times, want <= %d", allocs, budget)
	}
}

// TestSnapshotBesideParkedSend: an application thread of p is parked in
// Outbox.Send on a full window to q when p's receive goroutine records a
// marker snapshot. The record waits for no such send, since a send
// holds p's sends off (Quiesce) only between its stamp and its
// sequencing, never across the window wait: the snapshot completes, and
// the parked send then goes through. A hold spanning the wait would
// deadlock: the record would wait for the parked send, which waits for
// acks only the blocked receive goroutine reads.
func TestSnapshotBesideParkedSend(t *testing.T) {
	const window = 4
	sim := world.New(transport.Config{RTO: 2 * time.Second, Window: window}, netsim.WithSeed(5), netsim.WithTimeScale(1))
	t.Cleanup(sim.Close)
	p := sim.Dapplet("hostP", "pair", "p")
	q := sim.Dapplet("hostQ", "pair", "q")
	members := []snapshot.Member{{Name: "p", Addr: p.Addr()}, {Name: "q", Addr: q.Addr()}}
	snapshot.Attach(p, func() any { return nil }).SetPeers(members[1:])
	snapshot.Attach(q, func() any { return nil }).SetPeers(members[:1])
	data := q.Inbox("data")
	out := p.Outbox("out")
	out.Add(data.Ref())
	// Acks from q take 300 ms to come back: the window stays full that
	// long.
	sim.Net.SetLinkDelay("hostP", "hostQ", netsim.Constant(150*time.Millisecond))
	for range window {
		if err := out.Send(&wire.Text{S: "fill"}); err != nil {
			t.Fatal(err)
		}
	}
	parked := make(chan error, 1)
	go func() { parked <- out.Send(&wire.Text{S: "parked"}) }()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("transport.(*Reliable).awaitLocked(")); {
		if time.Now().After(deadline) {
			t.Fatal("the fifth send never waited for the window")
		}
		time.Sleep(100 * time.Microsecond)
	}

	coord := snapshot.NewCoordinator(sim.Dapplet("hostC", "coord", "coordinator"), members)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g, err := coord.SnapshotMarker(ctx)
	if err != nil {
		t.Fatalf("marker snapshot beside a parked send: %v", err)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("the parked send: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked send never went through")
	}
	for i := range window + 1 {
		if _, err := data.ReceiveEnvelopeContext(ctx); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
}

// TestClockSnapshotOverSlowLinks takes clock-based cuts of a token ring
// whose links take longer one way (250 ms) than the coordinator once
// slept between arming and collecting (200 ms), with tokens in flight.
// Each cut must balance every channel and hold every token exactly once:
// no fixed delay stands in for the flushes that close the channels. The
// first cut records on the collect; the second's T is near enough that
// ring traffic reaches it first at some members.
func TestClockSnapshotOverSlowLinks(t *testing.T) {
	sim := world.New(transport.Config{RTO: time.Second}, netsim.WithSeed(29), netsim.WithTimeScale(1),
		netsim.WithDefaultDelay(netsim.Constant(250*time.Millisecond)))
	t.Cleanup(sim.Close)
	const nodes, tokens, keep = 4, 6, 1
	w := buildRing(t, sim, nodes, keep)
	coord := snapshot.NewCoordinator(sim.Dapplet("coord", "coord", "coordinator"), w.members)
	w.inject(t, tokens)
	time.Sleep(300 * time.Millisecond) // tokens are on every link
	for _, margin := range []uint64{1_000_000, 4} {
		g, err := coord.SnapshotClock(context.Background(), margin)
		if err != nil {
			t.Fatalf("margin %d: %v", margin, err)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("margin %d: %v", margin, err)
		}
		if got := tokensIn(t, g); got != tokens {
			t.Fatalf("margin %d: the cut holds %d tokens (%d in flight), want %d", margin, got, g.InFlight(), tokens)
		}
		if len(g.States) != nodes {
			t.Fatalf("margin %d: states from %d nodes", margin, len(g.States))
		}
		t.Logf("margin %d: %d tokens in flight", margin, g.InFlight())
	}
}
