package relay

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// recvMsg receives one message within d via the context-first API.
func recvMsg(in *core.Inbox, d time.Duration) (wire.Msg, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return in.ReceiveContext(ctx)
}

// relayWorld is a seeded world plus dapplets with relays attached.
type relayWorld struct {
	*world.World
	dapplets []*core.Dapplet
	relays   []*Relay
	members  []Member
}

func newWorld(t *testing.T, n int) *relayWorld {
	return newWorldCfg(t, n, transport.Config{RTO: 20 * time.Millisecond})
}

func newWorldCfg(t *testing.T, n int, cfg transport.Config) *relayWorld {
	w := &relayWorld{World: world.New(cfg, netsim.WithSeed(77))}
	t.Cleanup(w.Close)
	for i := 0; i < n; i++ {
		d := w.Dapplet(fmt.Sprintf("site%d", i), "test", fmt.Sprintf("m%02d", i))
		w.dapplets = append(w.dapplets, d)
		w.relays = append(w.relays, Attach(d))
		w.members = append(w.members, Member{Name: d.Name(), Addr: d.Addr()})
	}
	return w
}

// bindAll lays one tree over every member and installs each member's
// corner of it, as a session set up with all of them would.
func (w *relayWorld) bindAll(sid string, fanout int, epoch uint64) {
	w.bindTree(sid, w.members, fanout, epoch, true)
}

// bindTree lays a fanout-k tree over members (a subset of the world, in
// tree order) and installs on each one's relay what the session layer
// would ship it: its neighbours and the tree depth. fromStart is for the
// relays this call binds for the first time.
func (w *relayWorld) bindTree(sid string, members []Member, fanout int, epoch uint64, fromStart bool) {
	tr := NewTree(members, fanout)
	for i, d := range w.dapplets {
		if tr.AppendNeighborhood(nil, d.Name()) == nil {
			continue
		}
		w.relays[i].Bind(sid, Binding{
			Neighbors: tr.Neighbors(d.Name()), Depth: tr.Depth(),
			Inbox: "bcast", Epoch: epoch, FromStart: fromStart,
		})
	}
}

func TestTreeShape(t *testing.T) {
	members := make([]Member, 13)
	for i := range members {
		members[i] = Member{Name: fmt.Sprintf("m%02d", i)}
	}
	tr := NewTree(members, 3)
	// Levels: {0}, {1..3}, {4..12} — two hops root to leaf.
	if got := tr.Depth(); got != 2 {
		t.Fatalf("depth of 13 nodes at fanout 3: got %d, want 2", got)
	}
	// Root: no parent, children 1..3.
	nb := tr.Neighbors("m00")
	if len(nb) != 3 || nb[0].Name != "m01" || nb[2].Name != "m03" {
		t.Fatalf("root neighbors: %v", nb)
	}
	// Interior node 1: parent 0, children 4..6.
	nb = tr.Neighbors("m01")
	if len(nb) != 4 || nb[0].Name != "m00" || nb[1].Name != "m04" || nb[3].Name != "m06" {
		t.Fatalf("node 1 neighbors: %v", nb)
	}
	// Leaf 12: parent (12-1)/3 = 3 only.
	nb = tr.Neighbors("m12")
	if len(nb) != 1 || nb[0].Name != "m03" {
		t.Fatalf("leaf neighbors: %v", nb)
	}
	if tr.Neighbors("stranger") != nil {
		t.Fatal("neighbors of a non-member should be nil")
	}
	// Every edge appears in both endpoints' neighbor lists.
	for _, m := range members {
		for _, n := range tr.Neighbors(m.Name) {
			back := false
			for _, b := range tr.Neighbors(n.Name) {
				if b.Name == m.Name {
					back = true
				}
			}
			if !back {
				t.Fatalf("edge %s-%s not symmetric", m.Name, n.Name)
			}
		}
	}
}

func TestTreeSingleAndDefaults(t *testing.T) {
	tr := NewTree([]Member{{Name: "only"}}, 0)
	if tr.Fanout() != DefaultFanout {
		t.Fatalf("fanout: got %d", tr.Fanout())
	}
	if tr.Depth() != 0 || tr.Neighbors("only") != nil {
		t.Fatal("single-member tree should have no edges")
	}
}

// drain receives n texts from an inbox, returning them in order.
func drain(t *testing.T, in *core.Inbox, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for len(out) < n {
		m, err := recvMsg(in, 5*time.Second)
		if err != nil {
			t.Fatalf("after %d of %d: %v", len(out), n, err)
		}
		out = append(out, m.(*wire.Text).S)
	}
	return out
}

// TestMulticastReachesAllInOrder floods messages from the root through a
// 10-member fanout-2 tree and checks every other member delivers all of
// them in send order, exactly once.
func TestMulticastReachesAllInOrder(t *testing.T) {
	w := newWorld(t, 10)
	w.bindAll("s1", 2, 1)
	inboxes := make([]*core.Inbox, len(w.dapplets))
	for i, d := range w.dapplets {
		inboxes[i] = d.Inbox("bcast")
	}
	const msgs = 20
	for i := 0; i < msgs; i++ {
		if err := w.relays[0].Multicast("out", "s1", uint64(i+1), &wire.Text{S: fmt.Sprintf("msg%03d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(w.dapplets); i++ {
		got := drain(t, inboxes[i], msgs)
		for j, s := range got {
			want := fmt.Sprintf("msg%03d", j)
			if s != want {
				t.Fatalf("member %d position %d: got %q, want %q", i, j, s, want)
			}
		}
	}
	// The origin does not deliver its own frames.
	if _, err := recvMsg(inboxes[0], 50*time.Millisecond); err == nil {
		t.Fatal("origin delivered its own multicast")
	}
}

// TestOutboxStreamThroughPartitionedRelay streams through a tree-bound
// outbox, over the chain m00-m01-m02, more frames than a window and its
// backlog hold while one hop is cut: the root's link (the outbox's own
// flood) or the interior's (its forwards). Both wait for the window, as a
// point-to-point outbox send does, so after Heal every frame reaches
// both members exactly once, in order, and no send failed.
func TestOutboxStreamThroughPartitionedRelay(t *testing.T) {
	for _, cut := range []string{"site1", "site2"} {
		t.Run(cut, func(t *testing.T) {
			const window = 4
			w := newWorldCfg(t, 3, transport.Config{RTO: 20 * time.Millisecond, MaxRetries: 100, Window: window})
			w.bindAll("s1", 1, 1)
			out := w.dapplets[0].Outbox("out")
			out.SetSession("s1")
			out.SetMulticast(w.relays[0])
			inboxes := []*core.Inbox{w.dapplets[1].Inbox("bcast"), w.dapplets[2].Inbox("bcast")}
			w.Net.Partition([]string{cut})
			msgs := 3 * 9 * window // past every hop's window and backlog
			sent := make(chan error, 1)
			go func() {
				for i := range msgs {
					if err := out.Send(&wire.Text{S: fmt.Sprintf("msg%03d", i)}); err != nil {
						sent <- fmt.Errorf("send %d: %w", i, err)
						return
					}
				}
				sent <- nil
			}()
			time.Sleep(300 * time.Millisecond)
			w.Net.Heal()
			for k, in := range inboxes {
				for j, s := range drain(t, in, msgs) {
					if want := fmt.Sprintf("msg%03d", j); s != want {
						t.Fatalf("member %d position %d: got %q, want %q", k+1, j, s, want)
					}
				}
				if _, err := recvMsg(in, 50*time.Millisecond); err == nil {
					t.Fatalf("member %d delivered a frame twice", k+1)
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMulticastAnyOrigin checks a mid-tree member can originate and
// reach everyone, including members "above" it.
func TestMulticastAnyOrigin(t *testing.T) {
	w := newWorld(t, 7)
	w.bindAll("s1", 2, 1)
	inboxes := make([]*core.Inbox, len(w.dapplets))
	for i, d := range w.dapplets {
		inboxes[i] = d.Inbox("bcast")
	}
	origin := 5 // a leaf
	if err := w.relays[origin].Multicast("out", "s1", 9, &wire.Text{S: "from-leaf"}); err != nil {
		t.Fatal(err)
	}
	for i := range w.dapplets {
		if i == origin {
			continue
		}
		if got := drain(t, inboxes[i], 1)[0]; got != "from-leaf" {
			t.Fatalf("member %d: got %q", i, got)
		}
	}
}

// TestMulticastEveryOrigin has every member of a 16-member fanout-4
// tree broadcast at once, in interleaved bursts, so each relay tracks
// every origin of the session while frames from all of them cross it.
// Every listener must deliver each origin's frames exactly once, in
// order. Fifteen members are in the session from the start and owed
// every origin's sequence from 1; the sixteenth joins the running
// session after the first round and starts each origin at the first
// frame it hears, which the others, owed its sequence from 1, get from
// its first.
func TestMulticastEveryOrigin(t *testing.T) {
	const members, bursts, burst = 16, 4, 5
	w := newWorld(t, members)
	inboxes := make([]*core.Inbox, members)
	for i, d := range w.dapplets {
		inboxes[i] = d.Inbox("bcast")
	}
	// round has the first senders members each multicast bursts×burst
	// frames, "name.tag/n", yielding between bursts.
	round := func(tag string, senders int) {
		var wg sync.WaitGroup
		errs := make(chan error, senders)
		for i := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range bursts * burst {
					if n%burst == 0 {
						runtime.Gosched()
					}
					msg := &wire.Text{S: fmt.Sprintf("%s.%s/%d", w.dapplets[i].Name(), tag, n)}
					if err := w.relays[i].Multicast("out", "s1", uint64(n+1), msg); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	w.bindTree("s1", w.members[:members-1], 4, 1, true)
	round("r1", members-1)
	for i := range members - 1 {
		expectInOrder(t, inboxes[i], (members-2)*bursts*burst)
	}
	// Every round-1 frame is in before the grow, so none crosses it.
	w.bindTree("s1", w.members, 4, 2, false)
	round("r2", members)
	for i := range members {
		expectOnce(t, inboxes[i], (members-1)*bursts*burst)
	}
}

// TestDeliveryEnvelopeIdentity checks the synthesized delivery envelope
// presents the origin's identity, outbox, session and Lamport stamp, both
// at the origin's children, whose frames name no origin address, and
// below a relay, which names it in the frames it forwards.
func TestDeliveryEnvelopeIdentity(t *testing.T) {
	w := newWorld(t, 4)
	w.bindAll("s9", 2, 1) // 0 above 1 and 2; 3 below 1
	inboxes := make([]*core.Inbox, len(w.dapplets))
	for i, d := range w.dapplets {
		inboxes[i] = d.Inbox("bcast")
	}
	if err := w.relays[0].Multicast("announce", "s9", 1234, &wire.Text{S: "x"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i < len(w.dapplets); i++ {
		env, err := inboxes[i].ReceiveEnvelopeContext(ctx)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if env.FromDapplet != w.dapplets[0].Addr() || env.To.Dapplet != w.dapplets[i].Addr() {
			t.Fatalf("member %d: FromDapplet = %v, To = %v, want origin %v to %v", i, env.FromDapplet, env.To.Dapplet, w.dapplets[0].Addr(), w.dapplets[i].Addr())
		}
		if env.FromOutbox != "announce" || env.Session != "s9" || env.Lamport != 1234 {
			t.Fatalf("member %d: envelope header = %q %q %d", i, env.FromOutbox, env.Session, env.Lamport)
		}
	}
}

// TestRedriveFillsGap kills a mid-tree relay's frames by unbinding it,
// then re-parents the orphaned subtree via rebinds at a newer epoch and
// redrives: the downstream member must still deliver every message in
// order with no duplicates.
func TestRedriveFillsGap(t *testing.T) {
	w := newWorld(t, 5)
	w.bindAll("s1", 1, 1) // fanout 1: a chain 0-1-2-3-4
	tail := w.dapplets[4].Inbox("bcast")

	if err := w.relays[0].Multicast("out", "s1", 1, &wire.Text{S: "a"}); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, tail, 1)[0]; got != "a" {
		t.Fatalf("got %q", got)
	}

	// Member 2 goes dark: frames from the root stop reaching 3 and 4.
	w.relays[2].Unbind("s1")
	if err := w.relays[0].Multicast("out", "s1", 2, &wire.Text{S: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvMsg(tail, 100*time.Millisecond); err == nil {
		t.Fatal("frame crossed an unbound relay")
	}

	// Repair: drop member 2 from the roster, rebind everyone at epoch 2,
	// and redrive from the origin's replay ring.
	repaired := append(append([]Member(nil), w.members[:2]...), w.members[3:]...)
	w.bindTree("s1", repaired, 1, 2, true)
	if err := w.relays[0].Redrive("s1"); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, tail, 1)[0]; got != "b" {
		t.Fatalf("after redrive: got %q", got)
	}
	// "a" was in the replay ring too; dedup must have dropped it.
	if _, err := recvMsg(tail, 100*time.Millisecond); err == nil {
		t.Fatal("redrive re-delivered an already-delivered frame")
	}
}

// TestRelayHealAfterGiveUp cuts the hop m01-m02 of a chain until m01's
// transport gives its forwards up, then heals it. The transport's floor
// lets the broadcasts after the heal through to m02 in order, where they
// wait behind the skipped ones; the origin's Redrive fills those, and
// m02 delivers every broadcast exactly once, in order. Without the floor
// nothing after the heal reaches m02, the redrive included.
func TestRelayHealAfterGiveUp(t *testing.T) {
	w := newWorldCfg(t, 3, transport.Config{RTO: 10 * time.Millisecond, MaxRetries: 3})
	w.bindAll("s1", 1, 1) // a chain 0-1-2
	child := w.dapplets[2]
	tail := child.Inbox("bcast")
	cast := func(prefix string, n int) {
		for i := range n {
			if err := w.relays[0].Multicast("out", "s1", 0, &wire.Text{S: fmt.Sprintf("%s%d", prefix, i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cast("a", 1)
	drain(t, tail, 1)

	w.Net.Partition([]string{"site2"})
	cast("b", 5)
	hop := w.dapplets[1].Transport()
	for deadline := time.Now().Add(5 * time.Second); hop.Stats().Failures < 5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("m01 gave up %d forwards to the cut m02, want 5", hop.Stats().Failures)
		}
	}
	w.Net.Heal()
	before := child.Transport().Stats().Delivered
	cast("c", 5)
	for deadline := time.Now().Add(5 * time.Second); child.Transport().Stats().Delivered < before+5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after the heal m02's transport delivered %d of the 5 later broadcasts: %+v",
				child.Transport().Stats().Delivered-before, child.Transport().Stats())
		}
	}
	if m, err := recvMsg(tail, 50*time.Millisecond); err == nil {
		t.Fatalf("m02 delivered %q past the skipped broadcasts", m.(*wire.Text).S)
	}
	if err := w.relays[0].Redrive("s1"); err != nil {
		t.Fatal(err)
	}
	want := []string{"b0", "b1", "b2", "b3", "b4", "c0", "c1", "c2", "c3", "c4"}
	if got := drain(t, tail, len(want)); !slices.Equal(got, want) {
		t.Fatalf("m02 delivered %q, want %q", got, want)
	}
	if m, err := recvMsg(tail, 100*time.Millisecond); err == nil {
		t.Fatalf("the redrive delivered %q twice", m.(*wire.Text).S)
	}
}

// TestRedriveNeverWaits redrives a replay ring of 20 frames, five
// windows, to a neighbour cut off from the origin: the re-flood is owed
// sends, so Redrive returns at once rather than waiting for the window,
// and after the heal the neighbour drops every copy as a duplicate.
func TestRedriveNeverWaits(t *testing.T) {
	const window = 4
	w := newWorldCfg(t, 2, transport.Config{RTO: 20 * time.Millisecond, MaxRetries: 100, Window: window})
	w.bindAll("s1", 1, 1)
	in := w.dapplets[1].Inbox("bcast")
	for i := range 5 * window {
		if err := w.relays[0].Multicast("out", "s1", uint64(i+1), &wire.Text{S: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, in, 5*window)
	w.Net.Partition([]string{"site1"})
	done := make(chan error, 1)
	go func() { done <- w.relays[0].Redrive("s1") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Redrive waited for the cut neighbour's window")
	}
	w.Net.Heal()
	for deadline := time.Now().Add(5 * time.Second); w.relays[1].Stats().DupDropped < 5*window; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the redriven copies never arrived: %+v", w.relays[1].Stats())
		}
	}
	if m, err := recvMsg(in, 50*time.Millisecond); err == nil {
		t.Fatalf("the redrive delivered %q twice", m.(*wire.Text).S)
	}
}

// TestBindEpochGuard checks a stale (older-epoch) bind cannot roll the
// tree back.
func TestBindEpochGuard(t *testing.T) {
	w := newWorld(t, 3)
	w.bindAll("s1", 2, 5)
	w.bindTree("s1", w.members[:2], 2, 3, true)
	if got := w.relays[0].Epoch("s1"); got != 5 {
		t.Fatalf("stale bind rolled epoch back to %d", got)
	}
	if nb, _ := w.relays[0].Neighbors("s1"); len(nb) != 2 {
		t.Fatalf("stale bind replaced the neighbours: %v", nb)
	}
}

// TestLateJoinerBaseline checks a member bound after the stream started
// begins delivering from its join point instead of waiting forever for
// sequence 1.
func TestLateJoinerBaseline(t *testing.T) {
	w := newWorld(t, 4)
	// Bind only the first three members at first.
	w.bindTree("s1", w.members[:3], 2, 1, true)
	pre1, pre2 := w.dapplets[1].Inbox("bcast"), w.dapplets[2].Inbox("bcast")
	for i := 0; i < 3; i++ {
		if err := w.relays[0].Multicast("out", "s1", uint64(i+1), &wire.Text{S: fmt.Sprintf("pre%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Let the pre-join flood finish before growing, so no in-flight
	// frame crosses the reconfiguration and reaches the newcomer.
	drain(t, pre1, 3)
	drain(t, pre2, 3)
	// Grow: all four members, epoch 2; the fourth joins a running
	// session.
	w.bindTree("s1", w.members, 2, 2, false)
	in := w.dapplets[3].Inbox("bcast") // before the send: a frame for a missing inbox is a dead letter
	if err := w.relays[0].Multicast("out", "s1", 4, &wire.Text{S: "post"}); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, in, 1)[0]; got != "post" {
		t.Fatalf("late joiner: got %q, want %q", got, "post")
	}
}

// TestMulticastStats sanity-checks the counters after a small flood.
func TestMulticastStats(t *testing.T) {
	w := newWorld(t, 6)
	w.bindAll("s1", 2, 1)
	for i := 1; i < 6; i++ {
		w.dapplets[i].Inbox("bcast")
	}
	if err := w.relays[0].Multicast("out", "s1", 1, &wire.Text{S: "x"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var delivered uint64
		for _, r := range w.relays {
			delivered += r.Stats().Delivered
		}
		if delivered == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered = %d, want 5", delivered)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFromStartWaitsForSeqOne pins the reconfiguration race a crash
// repair can produce: a neighbour rebound mid-flood forwards the frames
// it still had queued down its new edges, so a member that had heard
// nothing yet from the dead relay above it hears Seq 3 before Seq 1. A
// member in the session from the start is owed the whole sequence: it
// must hold Seq 3 until the redrive brings 1 and 2, and deliver each
// exactly once. A member that joined a running session starts at the
// first frame it hears.
func TestFromStartWaitsForSeqOne(t *testing.T) {
	for _, fromStart := range []bool{true, false} {
		d := core.NewDapplet("me", "test", newSinkConn(), core.WithTransportConfig(transport.Config{RTO: time.Hour}))
		t.Cleanup(d.Stop)
		r := Attach(d)
		parent := Member{Name: "up", Addr: netsim.Addr{Host: "up", Port: 1}}
		r.Bind("s1", Binding{Neighbors: []Member{parent}, Depth: 1, Inbox: "bcast", Epoch: 2, FromStart: fromStart})
		in := d.Inbox("bcast")
		for _, seq := range []uint64{3, 1, 2, 3, 4} { // 3 overtakes; then the redrive
			body, err := wire.EncodeBody(&wire.Text{S: fmt.Sprint(seq)})
			if err != nil {
				t.Fatal(err)
			}
			r.onFrame(&wire.Envelope{FromDapplet: parent.Addr, Session: "s1", Body: &wire.RelayFrame{
				Origin: "root", Seq: seq, Epoch: 1, TTL: 3,
				BodyID: body.ID(), Body: append([]byte(nil), body.Bytes()...),
			}})
			body.Release()
		}
		want := []string{"1", "2", "3", "4"}
		if !fromStart {
			want = []string{"3", "4"}
		}
		got := drain(t, in, int(r.Stats().Delivered))
		if !slices.Equal(got, want) {
			t.Fatalf("fromStart=%v: delivered %v, want %v", fromStart, got, want)
		}
	}
}

// TestOnFrameUnbound: a frame is counted as Unbound, and neither delivered
// nor forwarded, when its carrier is not a relay frame, names a session
// this relay has no tree for, or names no session at all — the frame
// itself does not say which session it belongs to.
func TestOnFrameUnbound(t *testing.T) {
	parent := Member{Name: "up", Addr: netsim.Addr{Host: "up", Port: 1}}
	kid := Member{Name: "down", Addr: netsim.Addr{Host: "down", Port: 1}}
	frame := func() wire.Msg {
		body, err := wire.EncodeBody(&wire.Text{S: "x"})
		if err != nil {
			t.Fatal(err)
		}
		defer body.Release()
		return &wire.RelayFrame{Origin: "root", Seq: 1, Epoch: 1, TTL: 3,
			BodyID: body.ID(), Body: append([]byte(nil), body.Bytes()...)}
	}
	for _, tc := range []struct {
		name      string
		session   string
		body      wire.Msg
		delivered uint64
	}{
		{"bound", "s1", frame(), 1},
		{"not a relay frame", "s1", &wire.Text{S: "x"}, 0},
		{"unknown session", "s2", frame(), 0},
		{"no carrier session", "", frame(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := newSinkConn()
			d := core.NewDapplet("me", "test", conn, core.WithTransportConfig(transport.Config{RTO: time.Hour}))
			t.Cleanup(d.Stop)
			r := Attach(d)
			r.Bind("s1", Binding{Neighbors: []Member{parent, kid}, Depth: 1, Inbox: "bcast", Epoch: 1, FromStart: true})
			d.Inbox("bcast")
			r.onFrame(&wire.Envelope{FromDapplet: parent.Addr, Session: tc.session, Body: tc.body})
			st := r.Stats()
			wantUnbound := uint64(1) - tc.delivered
			if st.Delivered != tc.delivered || st.Unbound != wantUnbound {
				t.Fatalf("delivered %d, unbound %d; want %d, %d", st.Delivered, st.Unbound, tc.delivered, wantUnbound)
			}
			conn.mu.Lock()
			defer conn.mu.Unlock()
			if got := conn.writes[kid.Addr]; got != int(tc.delivered) {
				t.Fatalf("forwarded %d datagrams to the child, want %d", got, tc.delivered)
			}
		})
	}
}
