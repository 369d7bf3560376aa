package relay

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// drainThreads counts the goroutines running Relay.drain, dumping their
// stacks into buf.
func drainThreads(buf []byte) int {
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("relay.(*Relay).drain("))
}

// TestForwardPastBacklog cuts an interior member's child off until more
// frames than a window and its backlog hold are owed to it, from two
// origins, then heals. The forwards the transport refused join the
// interior's owed FIFO, and so do the later ones to that child, so every
// origin's frames reach the child exactly once, in order. One drain
// thread at most sends them, and none is left once they are sent. A
// refused forward is not a send: the members' snapshot services, which
// count what they see sent against what the transport sequenced, must
// still complete a marker snapshot after the drain.
func TestForwardPastBacklog(t *testing.T) {
	const window = 4
	w := newWorldCfg(t, 4, transport.Config{RTO: 20 * time.Millisecond, MaxRetries: 100, Window: window})
	var snaps []snapshot.Member
	for _, d := range w.dapplets {
		snaps = append(snaps, snapshot.Member{Name: d.Name(), Addr: d.Addr()})
	}
	for _, d := range w.dapplets {
		snapshot.Attach(d, func() any { return nil }).SetPeers(slices.DeleteFunc(slices.Clone(snaps), func(m snapshot.Member) bool { return m.Addr == d.Addr() }))
	}
	w.bindAll("s1", 2, 1) // m00 above m01 and m02; m03 below m01
	interior, kid := w.dapplets[1].Inbox("bcast"), w.dapplets[3].Inbox("bcast")

	var maxDrains atomic.Int32
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		buf := make([]byte, 1<<20)
		for {
			if n := int32(drainThreads(buf)); n > maxDrains.Load() {
				maxDrains.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	defer func() { close(stop); <-sampled }()

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
	drain(t, interior, len(origins)*perOrigin) // every forward to m03 has been made or owed
	if st := w.relays[1].Stats(); st.Owed == 0 {
		t.Fatalf("no forward was owed past the backlog: %+v", st)
	}
	w.Net.Heal()

	next := make(map[string]int)
	for _, s := range drain(t, kid, len(origins)*perOrigin) {
		origin, num, _ := strings.Cut(s, "/")
		i, err := strconv.Atoi(num)
		if err != nil || i != next[origin] {
			t.Fatalf("the child got %q after %d of %s's frames", s, next[origin], origin)
		}
		next[origin]++
	}
	if _, err := recvMsg(kid, 50*time.Millisecond); err == nil {
		t.Fatal("the child got a frame twice")
	}
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for drainThreads(buf) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("a drain thread outlived the owed frames")
		}
		time.Sleep(time.Millisecond)
	}
	n := maxDrains.Load()
	t.Logf("%d forwards owed; at most %d drain thread(s) at once", w.relays[1].Stats().Owed, n)
	if n != 1 {
		t.Fatalf("%d drain threads ran at once, want 1 (none seen means the sampler missed it)", n)
	}

	coord := snapshot.NewCoordinator(w.Dapplet("coord", "coord", "coordinator"), snaps)
	coord.SetTimeout(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := coord.SnapshotMarker(ctx); err != nil {
		t.Fatalf("marker snapshot after the drain: %v", err)
	}
}
