package transport

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// The timer tests check the layer's one runtime timer per peer, set for
// the retransmission deadline or the delayed ack: that it holds no
// goroutine while it waits, and that Close silences it for good.

// reliableGoroutines returns the stack of every goroutine running code of
// a Reliable: a receive loop, or a timer callback.
func reliableGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "transport.(*Reliable)") {
			out = append(out, g)
		}
	}
	return out
}

// receiveLoops counts the receive loops among gs and reports whether
// nothing else is there.
func receiveLoops(gs []string) (n int, only bool) {
	for _, g := range gs {
		if !strings.Contains(g, "transport.(*Reliable).recvLoop") {
			return n, false
		}
		n++
	}
	return n, true
}

// awaitReceiveLoops waits until the goroutines running a Reliable's code
// are exactly want receive loops and nothing else.
func awaitReceiveLoops(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		gs := reliableGoroutines()
		if n, only := receiveLoops(gs); only && n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: want %d receive loops and nothing else, have:\n\n%s", what, want, strings.Join(gs, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimerNoGoroutineWhileIdle checks that a layer parks no goroutine of
// its own but the receive loop: once eight channels have each delivered a
// frame and their delayed acks have left, the only goroutines in the
// layer's code are the receive loops, and after Close none is.
func TestTimerNoGoroutineWhileIdle(t *testing.T) {
	base, _ := receiveLoops(reliableGoroutines())
	var all []*endpoint
	for range 8 {
		_, ra, rb := pairOn(t, "a", "b", Config{})
		all = append(all, ra, rb)
		sendSeqs(t, ra, rb.LocalAddr(), 1, 1)
		if err := recvSeqs(rb, 1, 1); err != nil {
			t.Fatal(err)
		}
		awaitDepth(t, ra, 0) // one frame is fewer than ackEvery: its ack waits for the timer
		if st := rb.Stats(); st.AcksSent != 1 {
			t.Fatalf("b sent %d bare acks, want the delayed one", st.AcksSent)
		}
	}
	awaitReceiveLoops(t, "idle", base+len(all))
	for _, r := range all {
		r.Close()
	}
	awaitReceiveLoops(t, "after Close", base)
}

// TestTimerCloseSilencesResends checks that Close stops the
// retransmission timer for good. Every datagram to the peer is lost, so
// the timer resends until Close; after Close returns, nothing is written
// and no failure is counted for twenty RTOs, though MaxRetries would
// have failed the frames well inside that time.
func TestTimerCloseSilencesResends(t *testing.T) {
	const rto = 5 * time.Millisecond
	n, ra, rb := pairOn(t, "a", "b", Config{RTO: rto, MaxRetries: 2})
	n.Partition([]string{"a"}, []string{"b"})
	sendSeqs(t, ra, rb.LocalAddr(), 1, 3)
	for deadline := time.Now().Add(5 * time.Second); ra.Stats().Retransmits == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no timer resend")
		}
	}
	ra.Close()
	rb.Close()
	written, failures := ra.Stats().DatagramsOut, ra.Stats().Failures
	time.Sleep(20 * rto)
	if n := ra.Stats().DatagramsOut; n != written {
		t.Fatalf("%d datagrams written after Close", n-written)
	}
	if n := ra.Stats().Failures; n != failures {
		t.Fatalf("%d failures counted after Close", n-failures)
	}
}

// TestTimerCloseRace closes a layer while its timers fall due, 500 times:
// a Send arms the retransmission timer, an arriving frame the delayed-ack
// timer, and Close follows after a delay jittered around the 1ms RTO, so
// it meets callbacks before, while and after they run. Under -race this
// guards the order of a callback's admission against Close's wait; at the
// end, no layer may have written a datagram since its Close returned.
func TestTimerCloseRace(t *testing.T) {
	peer := netsim.Addr{Host: "peer", Port: 1}
	cfg := Config{RTO: time.Millisecond}
	closed := make(map[*endpoint]uint64) // datagrams written when Close returned
	for i := range 500 {
		r := newEndpoint(newNullConn(), cfg)
		if err := r.Send(peer, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.handleDatagram(peer, appendFrame(appendHeader(nil, false, 0, 0, false), 1, nil, false, []byte{byte(i)}))
		time.Sleep(time.Duration(i%9) * 250 * time.Microsecond)
		r.Close()
		closed[r] = r.Stats().DatagramsOut
	}
	time.Sleep(20 * cfg.RTO)
	for r, n := range closed {
		if now := r.Stats().DatagramsOut; now != n {
			t.Fatalf("%d datagrams written after Close", now-n)
		}
	}
}
