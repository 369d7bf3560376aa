package snapshot_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/snapshot"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// TestChannelCaptureAndReplayAfterCrash drives the recovery half of the
// checkpoint protocol: a message is in flight from A to B while a marker
// snapshot runs, so B records it as channel state in its durable
// checkpoint; B then crashes, and the restarted incarnation re-queues the
// message via ReplayChannels with the original sender identity and
// Lamport stamp intact.
func TestChannelCaptureAndReplayAfterCrash(t *testing.T) {
	// Time scale 1 makes virtual link delays real, so the slow-link
	// choreography below plays out in wall-clock order.
	w := world.New(transport.Config{RTO: 50 * time.Millisecond}, netsim.WithSeed(31), netsim.WithTimeScale(1))
	t.Cleanup(w.Close)
	a := w.Dapplet("hostA", "pair", "alpha")
	b := w.Dapplet("hostB", "pair", "beta")
	svcA := snapshot.Attach(a, func() any { return 0 })
	svcB := snapshot.Attach(b, func() any { return 0 })
	memA := snapshot.Member{Name: "alpha", Addr: a.Addr()}
	memB := snapshot.Member{Name: "beta", Addr: b.Addr()}
	svcA.SetPeers([]snapshot.Member{memB})
	svcB.SetPeers([]snapshot.Member{memA})

	out := a.Outbox("out")
	out.Add(wire.InboxRef{Dapplet: b.Addr(), Inbox: "data"})
	b.Inbox("data")

	// Slow the A<->B link so the data message is still in flight when the
	// snapshot cut passes: B (members[0]) records immediately on the
	// coordinator's start, A records 200ms later when B's marker crosses
	// the slow link, and A's own marker closes the A->B channel another
	// 200ms after that — bracketing the delayed data message.
	w.Net.SetLinkDelay("hostA", "hostB", netsim.Constant(200*time.Millisecond))
	if err := out.Send(&wire.Text{S: "tok"}); err != nil {
		t.Fatal(err)
	}

	coord := coordinatorOn(w, []snapshot.Member{memB, memA})
	g, err := coord.SnapshotMarker(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.InFlight(); got != 1 {
		t.Fatalf("snapshot in-flight = %d, want 1", got)
	}

	cp, ok := snapshot.LastCheckpoint(b.Store())
	if !ok {
		t.Fatal("no durable checkpoint on B")
	}
	if len(cp.Channels) != 1 {
		t.Fatalf("durable channel state holds %d messages, want 1", len(cp.Channels))
	}
	rec := cp.Channels[0]
	if rec.Peer != "alpha" || rec.Inbox != "data" || rec.From != a.Addr() {
		t.Fatalf("channel record = %+v", rec)
	}

	// Crash B; the next incarnation reopens the surviving store.
	b.Stop()
	store := b.Store()
	store.Reopen()
	b2 := w.Dapplet("hostB", "pair", "beta", core.WithStore(store))
	b2.Inbox("data") // stand the session inbox back up before replaying

	n, err := snapshot.ReplayChannels(b2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d messages, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env, err := b2.Inbox("data").ReceiveEnvelopeContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.Body.(*wire.Text).S; got != "tok" {
		t.Fatalf("replayed body %q", got)
	}
	if env.FromDapplet != a.Addr() || env.FromOutbox != "out" {
		t.Fatalf("replayed sender = %v/%s", env.FromDapplet, env.FromOutbox)
	}
	if env.Lamport != rec.Lamport {
		t.Fatalf("replayed lamport = %d, recorded %d", env.Lamport, rec.Lamport)
	}

	// An empty or absent checkpoint replays nothing.
	if n, err := snapshot.ReplayChannels(a); err != nil || n != 0 {
		t.Fatalf("ReplayChannels(alpha) = %d, %v; alpha captured nothing", n, err)
	}
}
