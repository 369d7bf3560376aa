package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
)

// Send never waits: past a full window a frame joins the peer's backlog,
// which acks drain into the window, and past the backlog's bound Send
// refuses. These tests hold the window shut with a partition or a
// connection into the void.

// sendAll sends count frames from r to to, each payload its index, and
// fails the test if one Send does not return at once.
func sendAll(t *testing.T, r *Reliable, to netsim.Addr, first, count int) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := first; i < first+count; i++ {
			if err := r.Send(to, nil, []byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send waited for a full window")
	}
}

// A sink that sends to a peer whose window is full gets its Send back at
// once: the receive goroutine goes on reading, acks included.
func TestSendFromSinkToFullWindow(t *testing.T) {
	cfg := Config{RTO: 15 * time.Millisecond, MaxRetries: 1000, Window: 2}
	n := netsim.New()
	t.Cleanup(n.Close)
	bind := func(host string) PacketConn {
		ep, err := n.Host(host).Bind(1)
		if err != nil {
			t.Fatal(err)
		}
		return NewSimConn(ep)
	}
	c := newEndpoint(bind("c"), cfg)
	b := newEndpoint(bind("b"), cfg)
	sent := make(chan error, 2)
	var a *Reliable
	a = NewReliable(bind("a"), cfg, func(_, _ []byte, _ netsim.Addr) {
		sent <- a.Send(c.LocalAddr(), nil, []byte("from the sink"))
	})
	t.Cleanup(func() { a.Close(); b.Close(); c.Close() })
	n.Partition([]string{"a", "b"}, []string{"c"})
	sendAll(t, a, c.LocalAddr(), 0, cfg.Window) // a's window to c is full and stays full
	// The second is delivered only if the sink's Send for the first
	// returned.
	for i := range 2 {
		if err := b.Send(a.LocalAddr(), nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-sent:
			if err != nil {
				t.Fatalf("the sink's Send: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the sink's Send to a full window never returned")
		}
	}
	n.Heal()
	for i := 0; i < cfg.Window+2; i++ {
		if _, _, err := recvTimeout(c, 5*time.Second); err != nil {
			t.Fatalf("c's delivery %d after Heal: %v", i, err)
		}
	}
}

// Past backlogWindows windows of backlog, Send refuses with ErrBacklog,
// sequences nothing, and Stats counts the refusal.
func TestSendBacklogBound(t *testing.T) {
	const window = 4
	r := newEndpoint(newNullConn(), Config{RTO: time.Hour, Window: window})
	t.Cleanup(func() { r.Close() })
	peer := netsim.Addr{Host: "peer", Port: 1}
	sendAll(t, r.Reliable, peer, 0, window*(1+backlogWindows))
	for range 2 {
		if err := r.Send(peer, nil, []byte("one too many")); !errors.Is(err, ErrBacklog) {
			t.Fatalf("Send past the backlog bound: %v, want ErrBacklog", err)
		}
	}
	st := r.Stats()
	if st.BacklogFull != 2 || st.DataSent != window*(1+backlogWindows) {
		t.Fatalf("BacklogFull = %d, DataSent = %d; want 2 and %d", st.BacklogFull, st.DataSent, window*(1+backlogWindows))
	}
	if d := r.QueueDepth(); d != window*(1+backlogWindows) {
		t.Fatalf("QueueDepth = %d after refusals, want %d", d, window*(1+backlogWindows))
	}
}

// Past the backlog's bound Send refuses a frame and SendOwed takes it:
// it joins the backlog all the same, so the queue grows by one, and a
// Send after it is still refused.
func TestSendOwedPastBacklogBound(t *testing.T) {
	const window = 4
	const bound = window * (1 + backlogWindows)
	r := newEndpoint(newNullConn(), Config{RTO: time.Hour, Window: window})
	t.Cleanup(func() { r.Close() })
	peer := netsim.Addr{Host: "peer", Port: 1}
	sendAll(t, r.Reliable, peer, 0, bound)
	if err := r.Send(peer, nil, []byte("refused")); !errors.Is(err, ErrBacklog) {
		t.Fatalf("Send past the bound: %v, want ErrBacklog", err)
	}
	for i := 1; i <= 2; i++ {
		if err := r.SendOwed(peer, nil, []byte("owed")); err != nil {
			t.Fatalf("SendOwed %d past the bound: %v", i, err)
		}
		if d := r.QueueDepth(); d != bound+i {
			t.Fatalf("QueueDepth = %d after %d owed frames, want %d", d, i, bound+i)
		}
	}
	if err := r.Send(peer, nil, []byte("refused")); !errors.Is(err, ErrBacklog) {
		t.Fatalf("Send after the owed frames: %v, want ErrBacklog", err)
	}
	st := r.Stats()
	if st.BacklogFull != 2 || st.DataSent != bound+2 {
		t.Fatalf("BacklogFull = %d, DataSent = %d; want 2 and %d", st.BacklogFull, st.DataSent, bound+2)
	}
}

// Frames backlogged behind a partition leave as the healed path's acks
// open the window, and arrive in order, exactly once.
func TestBacklogDrainsAfterHeal(t *testing.T) {
	cfg := Config{RTO: 15 * time.Millisecond, MaxRetries: 1000, Window: 4}
	n, ra, rb := pairOn(t, "a", "b", cfg)
	n.Partition([]string{"a"}, []string{"b"})
	const total = 4 * 5 // the window and four of backlog
	sendAll(t, ra.Reliable, rb.LocalAddr(), 0, total)
	time.Sleep(3 * cfg.RTO) // the window's frames go round the timer a few times
	n.Heal()
	for i := 0; i < total; i++ {
		got, _, err := recvTimeout(rb, 5*time.Second)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("delivery %d carries %d: out of order", i, got[0])
		}
	}
	awaitDepth(t, ra, 0)
	if got, _, err := recvTimeout(rb, 50*time.Millisecond); err == nil {
		t.Fatalf("delivered again: %d", got[0])
	}
	if st := ra.Stats(); st.Failures != 0 || st.BacklogFull != 0 {
		t.Fatalf("Failures = %d, BacklogFull = %d, want none", st.Failures, st.BacklogFull)
	}
}

// A backlogged frame that never gets through is counted in
// Stats.Failures like any other, once the frames ahead of it have failed
// and made room for it in the window: nothing is dropped without a
// word. A failed frame goes back to the free list, as an acknowledged
// one does.
func TestBacklogFailuresReported(t *testing.T) {
	const window, total = 2, 8
	r := newEndpoint(newNullConn(), Config{RTO: 4 * time.Millisecond, MaxRetries: 1, Window: window})
	t.Cleanup(func() { r.Close() })
	peer := netsim.Addr{Host: "peer", Port: 1}
	sendAll(t, r.Reliable, peer, 0, total)
	for deadline := time.Now().Add(10 * time.Second); r.Stats().Failures < total; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames counted failed", r.Stats().Failures, total)
		}
	}
	if st := r.Stats(); st.Failures != total || st.BacklogFull != 0 {
		t.Fatalf("Failures = %d, BacklogFull = %d; want %d and 0", st.Failures, st.BacklogFull, total)
	}
	if d := r.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth = %d after every frame failed, want 0", d)
	}
	if free := freeSeqs(r, peer); len(free) != window {
		t.Fatalf("free list after %d failures holds seqs %v, want %d frames", total, free, window)
	}
}
