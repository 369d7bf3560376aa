package snapshot_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/snapshot"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// ringNode is a reactive dapplet behaviour: it holds up to `keep` tokens
// and forwards the rest around a ring. Its state mutation and its forward
// happen in a receive observer (OnRecv), on the receive goroutine that
// also records the snapshot, so a token is in exactly one recorded state
// or channel. The forward never waits: a few tokens never fill a window.
type ringNode struct {
	mu      sync.Mutex
	held    int
	records int // snapshot records taken of this node
}

// state records the node's held tokens as a varint.
func (n *ringNode) state() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.records++
	return wire.AppendVarint(nil, int64(n.held))
}

// heldIn decodes a recorded state.
func heldIn(raw []byte) (int, error) {
	r := wire.NewReader(raw)
	held := int(r.Varint())
	return held, r.Done()
}

// ringWorld builds n dapplets in a ring with snapshot services attached.
type ringWorld struct {
	dapplets []*core.Dapplet
	nodes    []*ringNode
	services []*snapshot.Service
	members  []snapshot.Member
}

// newWorld is a world whose dapplets run a 20 ms RTO, closed when t ends.
func newWorld(t *testing.T, opts ...netsim.Option) *world.World {
	sim := world.New(transport.Config{RTO: 20 * time.Millisecond}, opts...)
	t.Cleanup(sim.Close)
	return sim
}

func buildRing(t *testing.T, sim *world.World, n, keep int) *ringWorld {
	t.Helper()
	w := &ringWorld{}
	for i := 0; i < n; i++ {
		d := sim.Dapplet(fmt.Sprintf("host%d", i), "ring", fmt.Sprintf("node%d", i))
		node := &ringNode{}
		// Snapshot service first: its observers must run before the
		// application's state mutation.
		svc := snapshot.Attach(d, node.state)
		w.dapplets = append(w.dapplets, d)
		w.nodes = append(w.nodes, node)
		w.services = append(w.services, svc)
		w.members = append(w.members, snapshot.Member{Name: d.Name(), Addr: d.Addr()})
	}
	for i, d := range w.dapplets {
		next := w.dapplets[(i+1)%n]
		out := d.Outbox("succ")
		out.Add(wire.InboxRef{Dapplet: next.Addr(), Inbox: "ring"})
		d.Handle("ring", func(*wire.Envelope) {}) // drain the queue
		node := w.nodes[i]
		d.OnRecv(func(env *wire.Envelope) {
			if env.To.Inbox != "ring" {
				return
			}
			if _, ok := env.Body.(*wire.Text); !ok {
				return
			}
			node.mu.Lock()
			node.held++
			forward := node.held > keep
			if forward {
				node.held--
			}
			node.mu.Unlock()
			if forward {
				_ = out.Send(&wire.Text{S: "tok"})
			}
		})
	}
	for i := range w.dapplets {
		peers := make([]snapshot.Member, 0, n-1)
		for j, m := range w.members {
			if j != i {
				peers = append(peers, m)
			}
		}
		w.services[i].SetPeers(peers)
	}
	return w
}

// inject starts `tokens` tokens circulating from node 0.
func (w *ringWorld) inject(t *testing.T, tokens int) {
	t.Helper()
	for i := 0; i < tokens; i++ {
		if err := w.dapplets[0].Outbox("succ").Send(&wire.Text{S: "tok"}); err != nil {
			t.Fatal(err)
		}
	}
}

// tokensIn counts tokens in recorded states plus channel states.
func tokensIn(t *testing.T, g *snapshot.Global) int {
	t.Helper()
	total := 0
	for name, raw := range g.States {
		held, err := heldIn(raw)
		if err != nil {
			t.Fatalf("state of %s: %v", name, err)
		}
		total += held
	}
	total += g.InFlight()
	return total
}

func coordinatorOn(sim *world.World, members []snapshot.Member) *snapshot.Coordinator {
	return snapshot.NewCoordinator(sim.Dapplet("coord", "coord", "coordinator"), members)
}

func TestMarkerSnapshotConservesTokens(t *testing.T) {
	sim := newWorld(t, netsim.WithSeed(17))
	const nodes, tokens, keep = 4, 6, 1
	w := buildRing(t, sim, nodes, keep)
	coord := coordinatorOn(sim, w.members)
	w.inject(t, tokens)
	time.Sleep(50 * time.Millisecond) // let circulation reach steady state

	g, err := coord.SnapshotMarker(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if got := tokensIn(t, g); got != tokens {
		t.Fatalf("snapshot sees %d tokens, want %d (states=%v, in-flight=%d)",
			got, tokens, g.States, g.InFlight())
	}
	if len(g.States) != nodes {
		t.Fatalf("states from %d nodes", len(g.States))
	}
}

func TestClockSnapshotConservesTokens(t *testing.T) {
	sim := newWorld(t, netsim.WithSeed(23))
	const nodes, tokens, keep = 5, 8, 1
	w := buildRing(t, sim, nodes, keep)
	coord := coordinatorOn(sim, w.members)
	w.inject(t, tokens)
	time.Sleep(50 * time.Millisecond)

	g, err := coord.SnapshotClock(context.Background(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if got := tokensIn(t, g); got != tokens {
		t.Fatalf("checkpoint sees %d tokens, want %d", got, tokens)
	}
}

// TestClockSnapshotWaitsForCollect: one member's link from the coordinator
// is slower than the hops between members, so its peers' flushes reach
// it, and close all its channels, long before its take does. The run
// must not end there: a member that forgot the run before its take
// arrived would start it again, recording a second time, overwriting
// its durable checkpoint and flushing peers into runs that never end.
// Every member records once, reports once and forgets the run, and its
// durable checkpoint is the one it reported.
func TestClockSnapshotWaitsForCollect(t *testing.T) {
	sim := newWorld(t, netsim.WithSeed(37), netsim.WithTimeScale(1),
		netsim.WithDefaultDelay(netsim.Constant(5*time.Millisecond)))
	const nodes, tokens, keep = 4, 6, 1
	w := buildRing(t, sim, nodes, keep)
	coord := coordinatorOn(sim, w.members)
	sim.Net.SetLinkDelay("coord", "host1", netsim.Constant(200*time.Millisecond))
	w.inject(t, tokens)
	time.Sleep(50 * time.Millisecond)

	g, err := coord.SnapshotClock(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if got := tokensIn(t, g); got != tokens {
		t.Fatalf("checkpoint sees %d tokens, want %d", got, tokens)
	}
	time.Sleep(100 * time.Millisecond) // the ring runs on past the cut
	for i, d := range w.dapplets {
		name := d.Name()
		if n := w.services[i].Pending(); n != 0 {
			t.Errorf("%s still tracks %d runs", name, n)
		}
		w.nodes[i].mu.Lock()
		records := w.nodes[i].records
		w.nodes[i].mu.Unlock()
		if records != 1 {
			t.Errorf("%s recorded %d times, want 1", name, records)
		}
		cp, ok := snapshot.LastCheckpoint(d.Store())
		if !ok {
			t.Fatalf("%s has no durable checkpoint", name)
		}
		captured := 0
		for k, msgs := range g.Channels {
			if k.To == name {
				captured += len(msgs)
			}
		}
		if cp.ID != g.ID || string(cp.State) != string(g.States[name]) || len(cp.Channels) != captured {
			t.Errorf("%s's durable checkpoint is %s, state %x, %d channel messages; it reported %s, state %x, %d",
				name, cp.ID, cp.State, len(cp.Channels), g.ID, g.States[name], captured)
		}
	}
}

func TestRepeatedSnapshotsOnLiveSystem(t *testing.T) {
	sim := newWorld(t, netsim.WithSeed(31))
	const nodes, tokens = 3, 4
	w := buildRing(t, sim, nodes, 1)
	coord := coordinatorOn(sim, w.members)
	w.inject(t, tokens)
	for i := 0; i < 3; i++ {
		g, err := coord.SnapshotMarker(context.Background())
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if got := tokensIn(t, g); got != tokens {
			t.Fatalf("snapshot %d sees %d tokens", i, got)
		}
	}
}

// TestSnapshotsWithThreadedSenders snapshots a ring whose nodes forward
// from handler threads, not from the receive goroutine that records: a
// forward can be stamped before a record point and seen or sent after
// it, or follow the record while the markers are still queued. Every
// cut, marker and clock alike, must still balance its channels.
func TestSnapshotsWithThreadedSenders(t *testing.T) {
	sim := newWorld(t, netsim.WithSeed(41))
	const nodes, tokens = 8, 4
	var members []snapshot.Member
	var daps []*core.Dapplet
	var services []*snapshot.Service
	for i := 0; i < nodes; i++ {
		d := sim.Dapplet(fmt.Sprintf("host%d", i), "ring", fmt.Sprintf("node%d", i))
		daps = append(daps, d)
		services = append(services, snapshot.Attach(d, func() []byte { return nil }))
		members = append(members, snapshot.Member{Name: d.Name(), Addr: d.Addr()})
	}
	for i, d := range daps {
		out := d.Outbox("succ")
		out.Add(wire.InboxRef{Dapplet: daps[(i+1)%nodes].Addr(), Inbox: "ring"})
		d.Handle("ring", func(*wire.Envelope) { _ = out.Send(&wire.Text{S: "tok"}) })
		services[i].SetPeers(append(slices.Clone(members[:i]), members[i+1:]...))
	}
	coord := coordinatorOn(sim, members)
	for i := 0; i < tokens; i++ {
		if err := daps[0].Outbox("succ").Send(&wire.Text{S: "tok"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		var g *snapshot.Global
		var err error
		if i%2 == 0 {
			g, err = coord.SnapshotMarker(context.Background())
		} else {
			g, err = coord.SnapshotClock(context.Background(), daps[0].Clock().Now()+1000)
		}
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if err := g.CheckConsistent(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
}

func TestSnapshotQuiescentSystem(t *testing.T) {
	// A ring with no traffic: all channels empty, zero counters, states
	// intact.
	sim := newWorld(t)
	w := buildRing(t, sim, 3, 0)
	coord := coordinatorOn(sim, w.members)
	g, err := coord.SnapshotMarker(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if g.InFlight() != 0 {
		t.Fatalf("in-flight = %d on quiescent ring", g.InFlight())
	}
	if got := tokensIn(t, g); got != 0 {
		t.Fatalf("tokens = %d", got)
	}
}

func TestClockSnapshotQuiescent(t *testing.T) {
	sim := newWorld(t)
	w := buildRing(t, sim, 3, 0)
	coord := coordinatorOn(sim, w.members)
	g, err := coord.SnapshotClock(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistentDetectsViolations(t *testing.T) {
	ab := snapshot.ChannelKey{From: "a", To: "b"}
	g := &snapshot.Global{
		Sent:     map[snapshot.ChannelKey]uint64{ab: 5},
		Recv:     map[snapshot.ChannelKey]uint64{ab: 3},
		Crossed:  map[snapshot.ChannelKey]uint64{ab: 2},
		Channels: map[snapshot.ChannelKey][][]byte{ab: {[]byte("1"), []byte("2")}},
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatalf("consistent cut flagged: %v", err)
	}
	// Lose one in-flight frame: 5 != 3 + 1.
	g.Crossed[ab] = 1
	if err := g.CheckConsistent(); err == nil {
		t.Fatal("inconsistency not detected")
	}
	// A frame received after the sender's record point: 5 != 4 + 2.
	g.Crossed[ab], g.Recv[ab] = 2, 4
	if err := g.CheckConsistent(); err == nil {
		t.Fatal("inconsistency not detected")
	}
	// A message captured twice: three captured from two crossed frames.
	g.Recv[ab] = 3
	g.Channels[ab] = append(g.Channels[ab], []byte("2"))
	if err := g.CheckConsistent(); err == nil {
		t.Fatal("a message captured twice not detected")
	}
}

func TestChannelKeyString(t *testing.T) {
	k := snapshot.ChannelKey{From: "p", To: "q"}
	if k.String() != "p->q" {
		t.Fatalf("String = %q", k.String())
	}
}

func TestEmptyMembership(t *testing.T) {
	sim := newWorld(t)
	coord := coordinatorOn(sim, nil)
	if _, err := coord.SnapshotMarker(context.Background()); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := coord.SnapshotClock(context.Background(), 10); err == nil {
		t.Fatal("empty member set accepted")
	}
}

// TestCoordinatorCrashMidSnapshot is the crash-during-checkpoint case:
// a marker snapshot is in flight when the coordinator's host crashes.
// The members' marker runs must still terminate (they depend only on
// each other's markers), every member must persist its local checkpoint
// durably, no pending snapshot state may leak, and the coordinator's
// call must abort cleanly with a timeout rather than wedge. Fixed seed,
// single shard: the network schedule is reproducible.
func TestCoordinatorCrashMidSnapshot(t *testing.T) {
	sim := newWorld(t, netsim.WithSeed(99), netsim.WithShards(1))
	w := buildRing(t, sim, 4, 1)
	w.inject(t, 6)

	coord := snapshot.NewCoordinator(sim.Dapplet("coord-host", "coord", "coord"), w.members)

	// Crash the coordinator the moment the first member records its
	// local state — the snapshot is then guaranteed to be mid-flight.
	recorded := make(chan struct{}, 8)
	for _, d := range w.dapplets {
		d.OnRecv(func(env *wire.Envelope) {
			if env.To.Inbox == "@snap" {
				select {
				case recorded <- struct{}{}:
				default:
				}
			}
		})
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		_, err := coord.SnapshotMarker(ctx)
		done <- err
	}()
	select {
	case <-recorded:
		sim.Net.Crash("coord-host")
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot never reached a member")
	}

	// The coordinator aborts cleanly (reports are lost to the crash) —
	// or, if every report raced ahead of the crash, completes; it must
	// not wedge.
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, snapshot.ErrTimeout) {
			t.Fatalf("snapshot ended with unexpected error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SnapshotMarker wedged after coordinator crash")
	}

	// Members drain all pending snapshot state.
	deadline := time.Now().Add(5 * time.Second)
	for _, svc := range w.services {
		for svc.Pending() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("member leaked %d pending snapshot runs", svc.Pending())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Every member persisted a durable local checkpoint before the
	// report went anywhere.
	for i, d := range w.dapplets {
		cp, ok := snapshot.LastCheckpoint(d.Store())
		if !ok {
			t.Fatalf("member %d has no durable checkpoint", i)
		}
		if _, err := heldIn(cp.State); err != nil {
			t.Fatalf("member %d checkpoint state: %v", i, err)
		}
	}
}
