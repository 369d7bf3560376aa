package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
)

// LastSent moves when a data frame is sequenced, and only then: not on
// a bare ack, a retransmission or a send refused for backlog.
func TestLastSent(t *testing.T) {
	n, a, b := pairOn(t, "a", "b", Config{RTO: 20 * time.Millisecond, MaxRetries: 100})
	peerB, peerA := b.LocalAddr(), a.LocalAddr()
	if !a.LastSent(peerB).IsZero() {
		t.Fatal("LastSent is set before any frame was sent")
	}
	before := time.Now()
	if err := a.Send(peerB, nil, []byte("one")); err != nil {
		t.Fatal(err)
	}
	first := a.LastSent(peerB)
	if first.Before(before) {
		t.Fatalf("LastSent = %v after a first transmission at %v or later", first, before)
	}
	n.Partition([]string{"a"}, []string{"b"}) // frame two is resent until the heal
	if err := a.Send(peerB, nil, []byte("two")); err != nil {
		t.Fatal(err)
	}
	second := a.LastSent(peerB)
	if second.Before(first) {
		t.Fatalf("LastSent went back from %v to %v on a second frame", first, second)
	}
	for deadline := time.Now().Add(5 * time.Second); a.Stats().Retransmits == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("frame two was never resent")
		}
	}
	n.Heal()
	awaitDepth(t, a, 0) // b's bare acks arrive
	if got := a.LastSent(peerB); !got.Equal(second) {
		t.Fatalf("LastSent moved from %v to %v on a retransmission", second, got)
	}
	if got := b.LastSent(peerA); !got.IsZero() {
		t.Fatalf("b's LastSent = %v: a bare ack moved it", got)
	}

	// Past the backlog's bound a refused send leaves it.
	const window = 4
	r := newEndpoint(newNullConn(), Config{RTO: time.Hour, Window: window})
	t.Cleanup(func() { r.Close() })
	peer := netsim.Addr{Host: "peer", Port: 1}
	sendAll(t, r.Reliable, peer, 0, window*(1+backlogWindows))
	full := r.LastSent(peer)
	if full.IsZero() {
		t.Fatal("LastSent is not set by backlogged frames")
	}
	time.Sleep(time.Millisecond)
	if err := r.Send(peer, nil, []byte("refused")); !errors.Is(err, ErrBacklog) {
		t.Fatalf("Send past the backlog bound: %v, want ErrBacklog", err)
	}
	if got := r.LastSent(peer); !got.Equal(full) {
		t.Fatalf("LastSent moved from %v to %v on a refused send", full, got)
	}
}

// LastHeard moves when a datagram carrying a data frame arrives from the
// peer, duplicates and frames out of order included, and only then: not
// on a bare ack, a datagram without the magic, the endpoint's own sends
// or another peer's frames. Datagrams are handed to the receive path
// directly, so each arrives exactly when the test says.
func TestLastHeard(t *testing.T) {
	r := newEndpoint(newNullConn(), Config{RTO: time.Hour})
	t.Cleanup(func() { r.Close() })
	peer, other := netsim.Addr{Host: "peer", Port: 1}, netsim.Addr{Host: "other", Port: 1}
	data := func(seq uint64) []byte {
		return appendFrame(appendHeader(nil, false, 0, 0, false), seq, nil, true, []byte("x"))
	}
	bareAck := appendHeader(nil, true, 0, 0, false)
	last := time.Time{}
	arrive := func(what string, from netsim.Addr, dgram []byte, moves bool) {
		t.Helper()
		before := time.Now()
		r.handleDatagram(from, dgram)
		got := r.LastHeard(peer)
		switch {
		case moves && (got.Before(before) || !got.After(last)):
			t.Fatalf("%s: LastHeard = %v, want a reading from %v on", what, got, before)
		case !moves && !got.Equal(last):
			t.Fatalf("%s moved LastHeard from %v to %v", what, last, got)
		}
		last = got
	}

	if err := r.Send(peer, nil, []byte("own")); err != nil {
		t.Fatal(err)
	}
	if !r.LastHeard(peer).IsZero() {
		t.Fatal("the endpoint's own send set LastHeard")
	}
	arrive("a bare ack", peer, bareAck, false)
	garbage := append([]byte{'x', 'x', 0}, data(1)[3:]...)
	arrive("a datagram without the magic", peer, garbage, false)
	arrive("frame 1", peer, data(1), true)
	arrive("frame 3, out of order", peer, data(3), true)
	arrive("a duplicate of frame 1", peer, data(1), true)
	arrive("frame 3 again, still out of order", peer, data(3), true)
	arrive("a bare ack", peer, bareAck, false)
	arrive("another peer's frame", other, data(1), false)
	if r.LastHeard(other).IsZero() {
		t.Fatal("the other peer's frame did not set its own LastHeard")
	}
	r.mu.Lock()
	n := len(r.rx)
	r.mu.Unlock()
	if n != 2 {
		t.Fatalf("%d frames delivered, want 2 (peer's frame 1 and other's)", n)
	}
}

// Counts reads a channel's FIFO positions: the frames sequenced to the
// peer, and the frames from it the sink has returned from, which leave
// out the frame whose delivery is running.
func TestCounts(t *testing.T) {
	n := netsim.New()
	t.Cleanup(n.Close)
	bind := func(host string) PacketConn {
		ep, err := n.Host(host).Bind(1)
		if err != nil {
			t.Fatal(err)
		}
		return NewSimConn(ep)
	}
	a := newEndpoint(bind("a"), Config{})
	seen := make(chan uint64, 8)
	var b *Reliable
	b = NewReliable(bind("b"), Config{}, func(_, _ []byte, from netsim.Addr) {
		_, delivered := b.Counts(from)
		seen <- delivered
	})
	t.Cleanup(func() { a.Close(); b.Close() })
	const frames = 5
	sendAll(t, a.Reliable, b.LocalAddr(), 0, frames)
	if sequenced, _ := a.Counts(b.LocalAddr()); sequenced != frames {
		t.Fatalf("sequenced = %d, want %d", sequenced, frames)
	}
	for i := range uint64(frames) {
		select {
		case got := <-seen:
			if got != i {
				t.Fatalf("frame %d's sink read delivered = %d, want %d", i+1, got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never delivered", i+1)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, delivered := b.Counts(a.LocalAddr()); delivered == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delivered never reached every frame")
		}
		time.Sleep(time.Millisecond)
	}
	if s, d := a.Counts(netsim.Addr{Host: "nobody", Port: 1}); s != 0 || d != 0 {
		t.Fatalf("counts of a peer never contacted = %d, %d", s, d)
	}
}
