package relay

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestRelayHopAllocs is a tree hop's allocation budget: one frame into a
// member from its parent, counted across every goroutine it involves
// (the parent's send, both receive loops, the forwards to the member's
// children and the test's receive). The frame is decoded into the
// member's lent scratch and forwarded as it is, so what is left is the
// message it delivers locally and that message's envelope. The children
// are not bound to the session: their relays decode and drop the
// forwards, which costs nothing, so the count is the member's own. Each
// hop waits until the children have the forwards, as a broadcast waits
// for its slowest listener: a member that outran its children's acks
// would allocate transmit frames past its free list instead.
func TestRelayHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, tc := range []struct {
		name string
		kids int
	}{{"interior", 2}, {"leaf", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 2+tc.kids) // m00 the parent, m01 the member, then its children
			parent, me := w.dapplets[0], w.dapplets[1]
			w.relays[1].Bind("s1", Binding{
				Neighbors: append([]Member{w.members[0]}, w.members[2:]...),
				Depth:     2, Inbox: "bcast", Epoch: 1, FromStart: true,
			})
			in := me.Inbox("bcast")
			to := wire.InboxRef{Dapplet: me.Addr(), Inbox: InboxName}
			body, err := wire.EncodeBody(&wire.Bytes{B: make([]byte, 256)})
			if err != nil {
				t.Fatal(err)
			}
			frame := &wire.RelayFrame{Origin: "m00", OriginOutbox: "out", Epoch: 1, TTL: 6,
				BodyID: body.ID(), Body: append([]byte(nil), body.Bytes()...)}
			body.Release()
			kids := w.relays[2:]
			heard := func() (n uint64) {
				for _, r := range kids {
					n += r.Stats().Unbound
				}
				return n
			}
			hop := func() {
				frame.Seq++
				frame.Lamport++
				enc, err := wire.EncodeBody(frame)
				if err != nil {
					t.Fatal(err)
				}
				err = parent.SendEncoded(to, "s1", frame, enc)
				enc.Release()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := in.ReceiveEnvelope(); err != nil {
					t.Fatal(err)
				}
				for deadline := time.Now().Add(5 * time.Second); heard() < uint64(len(kids))*frame.Seq; {
					if time.Now().After(deadline) {
						var unbound []uint64
						for _, r := range kids {
							unbound = append(unbound, r.Stats().Unbound)
						}
						t.Fatalf("frame %d: the children heard %v forwards after 5 s; the member: %+v", frame.Seq, unbound, w.relays[1].Stats())
					}
					runtime.Gosched()
				}
			}
			for range 2000 { // warm the pools, the free lists and the decoders
				hop()
			}
			const budget = 2
			allocs := testing.AllocsPerRun(2000, hop)
			t.Logf("%.2f allocations per frame", allocs)
			if allocs > budget {
				t.Fatalf("one frame through a %s allocates %.2f times, want <= %d", tc.name, allocs, budget)
			}
			if st := w.relays[1].Stats(); st.Forwarded != uint64(tc.kids)*st.Delivered {
				t.Fatalf("%d frames delivered, %d forwarded, want %d forwards per frame", st.Delivered, st.Forwarded, tc.kids)
			}
		})
	}
}

// backlogWindows is the transport's backlog bound, in windows: past a
// full window and this many more, a refusable send is refused.
const backlogWindows = 8

// snapWorld is a world of n relay members, window frames per window,
// each with a snapshot service whose peers are all the others.
func snapWorld(t *testing.T, n, window int) (*relayWorld, []snapshot.Member) {
	w := newWorldCfg(t, n, transport.Config{RTO: 20 * time.Millisecond, MaxRetries: 100, Window: window})
	var snaps []snapshot.Member
	for _, d := range w.dapplets {
		snaps = append(snaps, snapshot.Member{Name: d.Name(), Addr: d.Addr()})
	}
	for _, d := range w.dapplets {
		snapshot.Attach(d, func() []byte { return nil }).SetPeers(slices.DeleteFunc(slices.Clone(snaps), func(m snapshot.Member) bool { return m.Addr == d.Addr() }))
	}
	return w, snaps
}

// snapshotMarker runs a marker snapshot of snaps from a new coordinator
// dapplet, within 5 s.
func (w *relayWorld) snapshotMarker(snaps []snapshot.Member) error {
	coord := snapshot.NewCoordinator(w.Dapplet("coord", "coord", "coordinator"), snaps)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := coord.SnapshotMarker(ctx)
	return err
}

// expectOnce receives total frames at in, each origin's in order, and
// then checks that no frame comes twice.
func expectOnce(t *testing.T, in *core.Inbox, total int) {
	t.Helper()
	expectInOrder(t, in, total)
	if _, err := recvMsg(in, 50*time.Millisecond); err == nil {
		t.Fatal("the child got a frame twice")
	}
}

// expectInOrder receives total frames at in, texts "origin/n", and
// checks that each origin's come in order from 0 with none repeated.
func expectInOrder(t *testing.T, in *core.Inbox, total int) {
	t.Helper()
	next := make(map[string]int)
	for _, s := range drain(t, in, total) {
		origin, num, _ := strings.Cut(s, "/")
		i, err := strconv.Atoi(num)
		if err != nil || i != next[origin] {
			t.Fatalf("the child got %q after %d of %s's frames", s, next[origin], origin)
		}
		next[origin]++
	}
}

// expectPastBound checks that tp queues more frames than a window of
// window frames and its backlog bound hold.
func expectPastBound(t *testing.T, tp *transport.Reliable, window int) {
	t.Helper()
	if d := tp.QueueDepth(); d <= window*(1+backlogWindows) {
		t.Fatalf("the interior queues %d frames with its child cut off, want more than the bound %d", d, window*(1+backlogWindows))
	}
}

// TestForwardPastBacklog cuts an interior member's child off until more
// frames than a window and its backlog hold are owed to it, from two
// origins, then heals. Forwards are never refused: past the bound they
// join the transport's backlog to the child all the same, so the
// interior's queue grows past the bound, and every origin's frames
// reach the child exactly once, in order. The members' snapshot
// services must still complete a marker snapshot afterwards.
func TestForwardPastBacklog(t *testing.T) {
	const window = 4
	w, snaps := snapWorld(t, 4, window)
	w.bindAll("s1", 2, 1) // m00 above m01 and m02; m03 below m01
	interior, kid := w.dapplets[1].Inbox("bcast"), w.dapplets[3].Inbox("bcast")

	w.Net.Partition([]string{"site3"})
	const perOrigin = 10 * window // two origins' frames exceed the window and 8 windows of backlog
	origins := []int{0, 2}        // the root, and m02, whose frames reach m01 through the root
	var wg sync.WaitGroup
	for _, o := range origins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perOrigin {
				if err := w.relays[o].Multicast("out", "s1", uint64(i+1), &wire.Text{S: fmt.Sprintf("m%02d/%d", o, i)}); err != nil {
					t.Errorf("origin m%02d, frame %d: %v", o, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	drain(t, interior, len(origins)*perOrigin) // every forward to m03 has been made
	tp := w.dapplets[1].Transport()
	expectPastBound(t, tp, window)
	w.Net.Heal()

	expectOnce(t, kid, len(origins)*perOrigin)
	if n := tp.Stats().BacklogFull; n != 0 {
		t.Fatalf("the interior's transport refused %d sends", n)
	}
	if err := w.snapshotMarker(snaps); err != nil {
		t.Fatalf("marker snapshot after the heal: %v", err)
	}
}

// TestMarkerPastBacklog starts a marker snapshot while an interior
// member's child is cut off and the interior's backlog to it is past
// its bound, and heals 200 ms later. The interior's marker to the child
// is sent from its receive goroutine and must not be dropped: it joins
// the backlog behind the forwards, so the child gets every frame once,
// in order, then the marker, and the snapshot completes.
func TestMarkerPastBacklog(t *testing.T) {
	const window = 4
	const frames = 10 * window // past the window and 8 windows of backlog
	w, snaps := snapWorld(t, 4, window)
	w.bindAll("s1", 2, 1) // m00 above m01 and m02; m03 below m01
	interior, kid := w.dapplets[1].Inbox("bcast"), w.dapplets[3].Inbox("bcast")

	w.Net.Partition([]string{"site3"})
	for i := range frames {
		if err := w.relays[0].Multicast("out", "s1", uint64(i+1), &wire.Text{S: fmt.Sprintf("m00/%d", i)}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	drain(t, interior, frames) // every forward to m03 has been made
	tp := w.dapplets[1].Transport()
	expectPastBound(t, tp, window)
	done := make(chan error, 1)
	go func() { done <- w.snapshotMarker(snaps) }()
	time.Sleep(200 * time.Millisecond)
	w.Net.Heal()

	expectOnce(t, kid, frames)
	if err := <-done; err != nil {
		t.Fatalf("marker snapshot across the cut: %v", err)
	}
	if n := tp.Stats().BacklogFull; n != 0 {
		t.Fatalf("the interior's transport refused %d sends", n)
	}
}
