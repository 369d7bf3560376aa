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
	cfg := Config{RTO: 20 * time.Millisecond, MaxRetries: 100}
	p, a, b := pipePair(t, time.Millisecond, cfg, func(d dgramInfo) verdict {
		if d.data(1, 1) {
			return drop // the first copy of frame 1 is lost: it is retransmitted
		}
		return pass
	})
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
	if err := a.Send(peerB, nil, []byte("two")); err != nil {
		t.Fatal(err)
	}
	second := a.LastSent(peerB)
	if second.Before(first) {
		t.Fatalf("LastSent went back from %v to %v on a second frame", first, second)
	}
	// Frame 2 overtakes the lost frame 1: b acks the gap at once, then,
	// once the retransmission fills it, acks both from its timer.
	p.await(t, "the retransmission of frame 1", func(d dgramInfo) bool { return d.data(1, 2) })
	p.await(t, "b's ack of both frames", func(d dgramInfo) bool { return !d.fromA && d.bareAck() && d.cum >= 2 })
	if n := p.count(func(d dgramInfo) bool { return !d.fromA && d.bareAck() }); n < 2 {
		t.Fatalf("b sent %d bare acks, want the gap's and the timer's", n)
	}
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
