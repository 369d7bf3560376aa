package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
)

// The loss-recovery tests run over the scripted pipe: losses, swaps and
// delays are fixed by rule, and each test waits on the datagram it
// expects rather than on the clock. The i-th Send to a peer carries seq i
// and a payload that says so.

// recoveryCfg keeps the timer far from the round trip, so that whatever
// is resent within a few round trips was resent by an ack and a stall of
// the test process does not let the timer in: the RTO never falls below
// RTO/2 = 1s.
var recoveryCfg = Config{RTO: 2 * time.Second, AckDelay: 5 * time.Millisecond}

const recoveryOneWay = 10 * time.Millisecond

func sendSeqs(t *testing.T, r *endpoint, to netsim.Addr, first, last uint64) {
	t.Helper()
	for seq := first; seq <= last; seq++ {
		if err := r.SendWait(to, nil, binary.BigEndian.AppendUint64(nil, seq)); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
}

func recvSeqs(r *endpoint, first, last uint64) error {
	for seq := first; seq <= last; seq++ {
		got, _, err := recvTimeout(r, 10*time.Second)
		if err != nil {
			return fmt.Errorf("recv %d: %w", seq, err)
		}
		if g := binary.BigEndian.Uint64(got); g != seq {
			return fmt.Errorf("delivery out of order: got %d, want %d", g, seq)
		}
	}
	return nil
}

func expectSeqs(t *testing.T, r *endpoint, first, last uint64) {
	t.Helper()
	if err := recvSeqs(r, first, last); err != nil {
		t.Fatal(err)
	}
}

// awaitDepth waits until r holds exactly n unacknowledged frames.
func awaitDepth(t *testing.T, r *endpoint, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); r.QueueDepth() != n; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth = %d, want %d", r.QueueDepth(), n)
		}
	}
}

// warmUp sends seqs 1..8 — one ackEvery's worth, so the ack is immediate
// — and waits for the round-trip sample their ack yields.
func warmUp(t *testing.T, ra, rb *endpoint) {
	t.Helper()
	sendSeqs(t, ra, rb.LocalAddr(), 1, 8)
	expectSeqs(t, rb, 1, 8)
	awaitDepth(t, ra, 0)
	if _, _, ok := ra.RTT(rb.LocalAddr()); !ok {
		t.Fatal("no round-trip sample after an acknowledged window")
	}
}

func dropCopies(seq uint64, copies ...int) func(dgramInfo) verdict {
	return func(d dgramInfo) verdict {
		for _, c := range copies {
			if d.data(seq, c) {
				return drop
			}
		}
		return pass
	}
}

// (a) A hole is resent when the ack revealing the third later seq
// arrives — not the second — and long before the timer.
func TestRecoveryHoleResentOnThirdLaterSeq(t *testing.T) {
	p, ra, rb := pipePair(t, recoveryOneWay, recoveryCfg, dropCopies(10, 1))
	warmUp(t, ra, rb)
	to := rb.LocalAddr()
	sendSeqs(t, ra, to, 9, 12)
	awaitDepth(t, ra, 1) // 9 acked, 11 and 12 named by the bitmap: only the hole is left
	if st := ra.Stats(); st.Retransmits != 0 {
		t.Fatalf("resent on two later seqs: %+v", st)
	}
	sendSeqs(t, ra, to, 13, 13)
	first := p.await(t, "data 10", func(d dgramInfo) bool { return d.data(10, 1) })
	again := p.await(t, "data 10 resent", func(d dgramInfo) bool { return d.data(10, 2) })
	if age := again.at.Sub(first.at); age > recoveryCfg.RTO/4 {
		t.Fatalf("hole resent %v after its first transmission, round trip %v", age, 2*recoveryOneWay)
	}
	expectSeqs(t, rb, 9, 13)
	awaitDepth(t, ra, 0)
	if st := ra.Stats(); st.Retransmits != 1 || st.FastRetransmits != 1 {
		t.Fatalf("Retransmits = %d, FastRetransmits = %d, want 1 and 1", st.Retransmits, st.FastRetransmits)
	}
}

// (b) A one-datagram swap causes no retransmission, nor does a
// duplicate — of a frame or of the ack that reports the swap.
func TestRecoverySwapAndDupCauseNoRetransmission(t *testing.T) {
	_, ra, rb := pipePair(t, recoveryOneWay, recoveryCfg, func(d dgramInfo) verdict {
		switch {
		case d.data(10, 1):
			return swap
		case d.data(13, 1), d.bareAck() && d.hasSel:
			return dup
		}
		return pass
	})
	warmUp(t, ra, rb)
	sendSeqs(t, ra, rb.LocalAddr(), 9, 14)
	expectSeqs(t, rb, 9, 14)
	awaitDepth(t, ra, 0)
	if st := ra.Stats(); st.Retransmits != 0 {
		t.Fatalf("Retransmits = %d after a swap and a duplicate", st.Retransmits)
	}
	if st := rb.Stats(); st.DupsDropped != 1 {
		t.Fatalf("DupsDropped = %d, want 1 (the duplicate of seq 13)", st.DupsDropped)
	}
}

// (c) A lost retransmission is resent from the ack of a frame sent after
// it, again long before the timer.
func TestRecoveryLostRetransmissionResentByAck(t *testing.T) {
	p, ra, rb := pipePair(t, recoveryOneWay, recoveryCfg, dropCopies(10, 1, 2))
	warmUp(t, ra, rb)
	to := rb.LocalAddr()
	sendSeqs(t, ra, to, 9, 13)
	second := p.await(t, "data 10 resent", func(d dgramInfo) bool { return d.data(10, 2) })
	// The next frame must leave more than a reordering window (SRTT/4)
	// after the lost copy for its ack to condemn that copy.
	srtt, _, _ := ra.RTT(to)
	time.Sleep(srtt / 2)
	sendSeqs(t, ra, to, 14, 14)
	third := p.await(t, "data 10 resent again", func(d dgramInfo) bool { return d.data(10, 3) })
	if gap := third.at.Sub(second.at); gap > recoveryCfg.RTO/4 {
		t.Fatalf("lost retransmission resent after %v, round trip %v", gap, 2*recoveryOneWay)
	}
	expectSeqs(t, rb, 9, 14)
	awaitDepth(t, ra, 0)
	if st := ra.Stats(); st.Retransmits != 2 || st.FastRetransmits != 2 {
		t.Fatalf("Retransmits = %d, FastRetransmits = %d, want 2 and 2", st.Retransmits, st.FastRetransmits)
	}
}

// (d) With every selective ack dropped, the next ack that gets through
// releases everything received: nothing but the hole is ever resent.
func TestRecoveryLostSelectiveAcksCostNothing(t *testing.T) {
	var blockSel atomic.Bool
	blockSel.Store(true)
	p, ra, rb := pipePair(t, recoveryOneWay, recoveryCfg, func(d dgramInfo) verdict {
		if d.data(10, 1) || d.bareAck() && d.hasSel && blockSel.Load() {
			return drop
		}
		return pass
	})
	warmUp(t, ra, rb)
	to := rb.LocalAddr()
	sendSeqs(t, ra, to, 9, 13)
	// The receiver has said all it knows — 9 delivered, 11..13 held, which
	// bits 0..2 above cum 9 name — and the pipe has dropped it.
	p.await(t, "the ack naming 11..13", func(d dgramInfo) bool {
		return d.bareAck() && d.cum == 9 && d.sel == 0b111
	})
	if got := ra.QueueDepth(); got != 5 {
		t.Fatalf("QueueDepth = %d with every ack dropped, want 5", got)
	}
	blockSel.Store(false)
	sendSeqs(t, ra, to, 14, 14)
	expectSeqs(t, rb, 9, 14)
	awaitDepth(t, ra, 0)
	if st := ra.Stats(); st.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1 (the hole)", st.Retransmits)
	}
	if n := p.count(func(d dgramInfo) bool { return d.resent() && !slices.Equal(d.frames, []uint64{10}) }); n != 0 {
		t.Fatalf("%d datagrams resent frames that had arrived", n)
	}
}

// (e) The re-arm regression: a frame first sent just after a timer round
// is resent within 1.5x the RTO then in force, counted from its own
// send. The fixed-timer layer left it waiting for the backed-off event
// of the frame before it, 2x the RTO away.
func TestRecoveryTimerRearmsForEarlierDeadline(t *testing.T) {
	cfg := Config{RTO: 400 * time.Millisecond, AckDelay: 5 * time.Millisecond}
	p, ra, rb := pipePair(t, 2*time.Millisecond, cfg, func(d dgramInfo) verdict {
		if d.data(9, 1) || d.data(10, 1) {
			return drop
		}
		return pass
	})
	warmUp(t, ra, rb)
	to := rb.LocalAddr()
	sendSeqs(t, ra, to, 9, 9)
	p.await(t, "data 9 resent by the timer", func(d dgramInfo) bool { return d.data(9, 2) })
	_, rto, _ := ra.RTT(to)
	sendSeqs(t, ra, to, 10, 10)
	first := p.await(t, "data 10", func(d dgramInfo) bool { return d.data(10, 1) })
	again := p.await(t, "data 10 resent by the timer", func(d dgramInfo) bool { return d.data(10, 2) })
	if age := again.at.Sub(first.at); age > rto*3/2 {
		t.Fatalf("frame resent %v after its send, RTO in force %v: it waited for another frame's timer", age, rto)
	}
	expectSeqs(t, rb, 9, 10)
	if st := ra.Stats(); st.FastRetransmits != 0 {
		t.Fatalf("FastRetransmits = %d; this test is about the timer", st.FastRetransmits)
	}
}

// (f) Karn and retention: on a loss-free path whose round trip is 4x
// Config.RTO every frame of the first window is resent before its ack
// can arrive, so no ack yields a sample (Karn); the retained back-off and
// the bound those acks do give must carry the timer past the round trip
// until one does. From then on no frame is resent younger than a round
// trip: only a stall of this process can make the timer fire at all.
func TestRecoveryEstimatorSurvivesRTTAboveInitialRTO(t *testing.T) {
	cfg := Config{RTO: 10 * time.Millisecond, Window: 64}
	rtt := 4 * cfg.RTO
	p, ra, rb := pipePair(t, rtt/2, cfg, nil)
	const window, total = 64, 13 * 64
	done := make(chan error, 1)
	go func() { done <- recvSeqs(rb, 1, total) }()
	sendSeqs(t, ra, rb.LocalAddr(), 1, total)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	awaitDepth(t, ra, 0)

	// A retransmission is premature when the copy before it had not been
	// out for a round trip; one later than that is the timer doing its job
	// over a stalled process, which no estimator can prevent.
	var early, late, earlyAfter3 int
	last := make(map[uint64]time.Time)
	p.mu.Lock()
	for _, d := range p.log {
		for _, seq := range d.frames {
			if prev, resent := last[seq]; !resent {
			} else if d.at.Sub(prev) >= rtt {
				late++
			} else if early++; seq > 3*window {
				earlyAfter3++
			}
			last[seq] = d.at
		}
	}
	p.mu.Unlock()
	t.Logf("%d premature retransmissions, %d after a full round trip, over %d frames", early, late, total)
	if earlyAfter3 != 0 {
		t.Fatalf("%d frames past the third window resent before a round trip had passed: the estimator never settled", earlyAfter3)
	}
	if limit := 10 * window / 4; early > limit {
		t.Fatalf("%d premature retransmissions over the first %d frames, want <= %d", early, 10*window, limit)
	}
	if srtt, rto, ok := ra.RTT(rb.LocalAddr()); !ok || srtt < rtt || rto <= srtt {
		t.Fatalf("RTT = %v, RTO = %v, sampled = %v on a %v path", srtt, rto, ok, rtt)
	}
}

// A staged frame has not been on the wire until its batch leaves, however
// long ago Send took it: the ack of a retransmission made in between must
// not condemn it as sent before something that arrived.
func TestRecoveryStagedFramesNotCondemned(t *testing.T) {
	var staged atomic.Bool
	p, ra, rb := pipePair(t, recoveryOneWay, recoveryCfg, func(d dgramInfo) verdict {
		switch {
		case d.data(9, 1):
			return drop
		case d.carries(17) && len(d.frames) > 1 && !staged.Swap(true):
			return swap // the batch arrives behind the resent hole, so the hole's ack comes first
		}
		return pass
	})
	warmUp(t, ra, rb)
	to := rb.LocalAddr()
	sendSeqs(t, ra, to, 9, 16)  // ackEvery transmitted frames in flight, the first of them lost...
	sendSeqs(t, ra, to, 17, 20) // ...so these four are staged, a round trip before 9 is resent
	// The first ack back names 10 and releases the stage; the third
	// condemns 9. The resent 9 overtakes the batch, so the ack that covers
	// it finds the batch's frames unacknowledged: they left just before
	// the resend, but were handed to Send a round trip before it.
	p.await(t, "data 9 resent", func(d dgramInfo) bool { return d.data(9, 2) })
	expectSeqs(t, rb, 9, 20)
	awaitDepth(t, ra, 0)
	if !staged.Load() {
		t.Log("this process stalled for a round trip between two Sends: nothing was staged, nothing checked")
		return
	}
	st := ra.Stats()
	if st.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1: staged frames were timed from their Send, not from when they left", st.Retransmits)
	}
	if st.FlushAck == 0 || st.FlushBackstop != 0 {
		t.Fatalf("FlushAck = %d, FlushBackstop = %d: the stage should have left on an ack", st.FlushAck, st.FlushBackstop)
	}
}

// Frames lost together are resent together: the ack that condemns one
// condemns both, and they leave in one datagram, in seq order.
func TestRecoveryLostPairResentTogether(t *testing.T) {
	p, ra, rb := pipePair(t, recoveryOneWay, recoveryCfg, func(d dgramInfo) verdict {
		if d.data(9, 1) || d.data(10, 1) {
			return drop
		}
		return pass
	})
	warmUp(t, ra, rb)
	sendSeqs(t, ra, rb.LocalAddr(), 9, 13)
	d := p.await(t, "data 9 resent", func(d dgramInfo) bool { return d.data(9, 2) })
	if !slices.Equal(d.frames, []uint64{9, 10}) {
		t.Fatalf("9 was resent in a datagram carrying %v, want [9 10]", d.frames)
	}
	expectSeqs(t, rb, 9, 13)
	awaitDepth(t, ra, 0)
	if st := ra.Stats(); st.Retransmits != 2 || st.FastRetransmits != 2 {
		t.Fatalf("Retransmits = %d, FastRetransmits = %d, want 2 and 2", st.Retransmits, st.FastRetransmits)
	}
	if n := p.count(dgramInfo.resent); n != 1 {
		t.Fatalf("%d datagrams resent frames, want 1", n)
	}
}

// A retransmission carries the ack its peer is owed, so no bare ack
// follows it: not at once, and not when the delayed-ack timer comes due.
func TestRecoveryResendCarriesOwedAck(t *testing.T) {
	cfg := recoveryCfg
	cfg.AckDelay = 300 * time.Millisecond
	p, ra, rb := pipePair(t, recoveryOneWay, cfg, dropCopies(10, 1))
	warmUp(t, ra, rb)
	sendSeqs(t, ra, rb.LocalAddr(), 9, 13)
	// b's frame reaches a ahead of the acks that condemn 10 — one
	// direction of the pipe is FIFO — so a owes b an ack when it resends.
	sendSeqs(t, rb, ra.LocalAddr(), 1, 1)
	d := p.await(t, "data 10 resent", func(d dgramInfo) bool { return d.data(10, 2) })
	if !d.hasCum || d.cum != 1 {
		t.Fatalf("the resent 10 carries an ack: %v, cum %d; want cum 1, b's frame", d.hasCum, d.cum)
	}
	expectSeqs(t, rb, 9, 13)
	expectSeqs(t, ra, 1, 1)
	time.Sleep(cfg.AckDelay + 50*time.Millisecond) // a's delayed-ack deadline for b's frame passes
	if n := p.count(func(d dgramInfo) bool { return d.fromA && d.bareAck() }); n != 0 {
		t.Fatalf("a sent %d bare acks after its retransmission had carried the ack", n)
	}
	if st := ra.Stats(); st.AcksSent != 0 || st.AcksPiggybacked != 1 {
		t.Fatalf("AcksSent = %d, AcksPiggybacked = %d, want 0 and 1", st.AcksSent, st.AcksPiggybacked)
	}
}

// Resent frames are packed like first transmissions: no datagram
// outgrows the budget unless it is one frame larger than the budget, and
// frames lost in one batch are resent in one datagram.
func TestRecoveryResendsPackedWithinBudget(t *testing.T) {
	cfg := recoveryCfg
	cfg.Window = 256
	const total = 600
	size := func(seq uint64) int { return int(seq*7919%1500) + 8 } // large among small, each with its seq
	p, ra, rb := pipePair(t, time.Millisecond, cfg, func(d dgramInfo) verdict {
		// Lose the first copy of every datagram carrying a multiple of 16,
		// short of the tail, where too little follows to condemn it.
		for i, seq := range d.frames {
			if d.fromA && d.copies[i] == 1 && seq%16 == 0 && seq < total-16 {
				return drop
			}
		}
		return pass
	})
	done := make(chan error, 1)
	go func() { done <- recvSeqs(rb, 1, total) }()
	for seq := uint64(1); seq <= total; seq++ {
		payload := binary.BigEndian.AppendUint64(make([]byte, 0, size(seq)), seq)
		if err := ra.Send(rb.LocalAddr(), nil, payload[:size(seq)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	assertWithinBudget(t, p)
	if n := p.count(func(d dgramInfo) bool { return d.resent() && len(d.frames) > 1 }); n == 0 {
		t.Fatal("no datagram resent two or more frames: the test exercised nothing")
	}
}

// (g) An ack naming seqs that were never sent frees nothing it should
// not and resends nothing: bitmap bits at or past nextSeq are ignored —
// they must not count towards the three later seqs that condemn a frame —
// and a cum past nextSeq is clamped to it, as it always was, which puts
// every bit of its bitmap out of range — whether the ack comes bare or
// ahead of a frame.
func TestRecoveryAckBeyondNextSeqIgnored(t *testing.T) {
	for _, form := range []struct {
		name string
		ack  func(cum uint64) []byte
	}{
		{"standalone", func(cum uint64) []byte { return appendHeader(nil, true, cum, ^uint64(0), true) }},
		{"batch header", func(cum uint64) []byte {
			return appendFrame(appendHeader(nil, true, cum, ^uint64(0), true), 1, nil, false, []byte("reverse"))
		}},
	} {
		t.Run(form.name, func(t *testing.T) {
			r := newEndpoint(newNullConn(), Config{RTO: time.Hour})
			defer r.Close()
			peer := netsim.Addr{Host: "peer", Port: 1}
			sendSeqs(t, r, peer, 1, 5)
			// cum 4 is honest; every bit names a seq from 6 up, and 6 is nextSeq.
			r.handleDatagram(peer, form.ack(4))
			if got := r.QueueDepth(); got != 1 {
				t.Fatalf("QueueDepth = %d after cum 4 with a garbage bitmap, want 1 (seq 5)", got)
			}
			// cum far past nextSeq: clamped to 5, the bitmap wholly out of range.
			r.handleDatagram(peer, form.ack(1<<40))
			if got := r.QueueDepth(); got != 0 {
				t.Fatalf("QueueDepth = %d after a clamped cum, want 0", got)
			}
			// The window state is intact: the next frame is seq 6, a
			// garbage bitmap above it does not condemn it, its ack frees it.
			sendSeqs(t, r, peer, 6, 6)
			r.handleDatagram(peer, form.ack(5))
			if got := r.QueueDepth(); got != 1 {
				t.Fatalf("QueueDepth = %d after a garbage bitmap above seq 6, want 1", got)
			}
			r.handleDatagram(peer, form.ack(6))
			if got := r.QueueDepth(); got != 0 {
				t.Fatalf("QueueDepth = %d after seq 6 was acked, want 0", got)
			}
			if st := r.Stats(); st.Retransmits != 0 {
				t.Fatalf("Retransmits = %d: a garbage bitmap condemned a frame", st.Retransmits)
			}
		})
	}
}
