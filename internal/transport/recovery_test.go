package transport

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
)

// The loss-recovery tests run two channel machines over a line with a
// fixed one-way delay on a virtual clock (duo.flow), losses by rule.

// recoveryCfg keeps the timer far from the round trip, so that whatever
// is resent within a few round trips was resent by an ack: the RTO
// never falls below RTO/2 = 1s.
var recoveryCfg = Config{RTO: 2 * time.Second, AckDelay: 5 * time.Millisecond}

const recoveryOneWay = 10 * time.Millisecond

// sendSeqs sends seqs first..last from end i, each waiting for room in
// the window as SendWait does.
func (d *duo) sendSeqs(t *testing.T, i int, first, last uint64) {
	t.Helper()
	for seq := first; seq <= last; seq++ {
		d.flow(t, recoveryOneWay, func() bool { return len(d.ch[i].unacked) < d.ch[i].cfg.Window })
		if err := d.send(i, nil, binary.BigEndian.AppendUint64(nil, seq), false); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
}

// settle flows until end 1 has delivered seqs 1..last and end 0 holds
// nothing, and checks the deliveries.
func (d *duo) settle(t *testing.T, oneWay time.Duration, last uint64) {
	t.Helper()
	d.flow(t, oneWay, func() bool { return len(d.rx[1]) >= int(last) && d.depth(0) == 0 })
	for k, f := range d.rx[1] {
		if got := binary.BigEndian.Uint64(f.payload); got != uint64(k+1) {
			t.Fatalf("delivery %d carries seq %d", k+1, got)
		}
	}
	if len(d.rx[1]) != int(last) {
		t.Fatalf("%d delivered, want %d", len(d.rx[1]), last)
	}
}

// warmUp sends seqs 1..8 — one ackEvery's worth, so the ack is immediate
// — and waits for the round-trip sample their ack yields.
func (d *duo) warmUp(t *testing.T) {
	t.Helper()
	d.sendSeqs(t, 0, 1, 8)
	d.settle(t, recoveryOneWay, 8)
	if d.ch[0].srtt == 0 {
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
	d := newDuo(recoveryCfg, dropCopies(10, 1))
	d.warmUp(t)
	d.sendSeqs(t, 0, 9, 12)
	d.flow(t, recoveryOneWay, func() bool { return d.depth(0) == 1 }) // 9 acked, 11 and 12 named by the bitmap
	if st := d.stats[0].snapshot(); st.Retransmits != 0 {
		t.Fatalf("resent on two later seqs: %+v", st)
	}
	d.sendSeqs(t, 0, 13, 13)
	again := d.await(t, recoveryOneWay, func(d dgramInfo) bool { return d.data(10, 2) })
	first := d.log[slices.IndexFunc(d.log, func(l dgramInfo) bool { return l.data(10, 1) })]
	if age := again.at.Sub(first.at); age > recoveryCfg.RTO/4 {
		t.Fatalf("hole resent %v after its first transmission, round trip %v", age, 2*recoveryOneWay)
	}
	d.settle(t, recoveryOneWay, 13)
	if st := d.stats[0].snapshot(); st.Retransmits != 1 || st.FastRetransmits != 1 {
		t.Fatalf("Retransmits = %d, FastRetransmits = %d, want 1 and 1", st.Retransmits, st.FastRetransmits)
	}
}

// (b) A one-datagram swap causes no retransmission, nor does a
// duplicate — of a frame or of the ack that reports the swap.
func TestRecoverySwapAndDupCauseNoRetransmission(t *testing.T) {
	d := newDuo(recoveryCfg, func(d dgramInfo) verdict {
		switch {
		case d.data(10, 1):
			return swap
		case d.data(13, 1), d.bareAck() && d.hasSel:
			return dup
		}
		return pass
	})
	d.warmUp(t)
	d.sendSeqs(t, 0, 9, 14)
	d.settle(t, recoveryOneWay, 14)
	if st := d.stats[0].snapshot(); st.Retransmits != 0 {
		t.Fatalf("Retransmits = %d after a swap and a duplicate", st.Retransmits)
	}
	if st := d.stats[1].snapshot(); st.DupsDropped != 1 {
		t.Fatalf("DupsDropped = %d, want 1 (the duplicate of seq 13)", st.DupsDropped)
	}
}

// (c) A lost retransmission is resent from the ack of a frame sent after
// it, again long before the timer.
func TestRecoveryLostRetransmissionResentByAck(t *testing.T) {
	d := newDuo(recoveryCfg, dropCopies(10, 1, 2))
	d.warmUp(t)
	d.sendSeqs(t, 0, 9, 13)
	second := d.await(t, recoveryOneWay, func(d dgramInfo) bool { return d.data(10, 2) })
	// The next frame must leave more than a reordering window (SRTT/4)
	// after the lost copy for its ack to condemn that copy.
	d.sleep(t, recoveryOneWay, d.ch[0].srtt/2)
	d.sendSeqs(t, 0, 14, 14)
	third := d.await(t, recoveryOneWay, func(d dgramInfo) bool { return d.data(10, 3) })
	if gap := third.at.Sub(second.at); gap > recoveryCfg.RTO/4 {
		t.Fatalf("lost retransmission resent after %v, round trip %v", gap, 2*recoveryOneWay)
	}
	d.settle(t, recoveryOneWay, 14)
	if st := d.stats[0].snapshot(); st.Retransmits != 2 || st.FastRetransmits != 2 {
		t.Fatalf("Retransmits = %d, FastRetransmits = %d, want 2 and 2", st.Retransmits, st.FastRetransmits)
	}
}

// (d) With every selective ack dropped, the next ack that gets through
// releases everything received: nothing but the hole is ever resent.
func TestRecoveryLostSelectiveAcksCostNothing(t *testing.T) {
	blockSel := true
	d := newDuo(recoveryCfg, func(d dgramInfo) verdict {
		if d.data(10, 1) || d.bareAck() && d.hasSel && blockSel {
			return drop
		}
		return pass
	})
	d.warmUp(t)
	d.sendSeqs(t, 0, 9, 13)
	// The receiver has said all it knows — 9 delivered, 11..13 held, which
	// bits 0..2 above cum 9 name — and the line has dropped it.
	d.await(t, recoveryOneWay, func(d dgramInfo) bool { return d.bareAck() && d.cum == 9 && d.sel == 0b111 })
	if got := d.depth(0); got != 5 {
		t.Fatalf("depth = %d with every ack dropped, want 5", got)
	}
	blockSel = false
	d.sendSeqs(t, 0, 14, 14)
	d.settle(t, recoveryOneWay, 14)
	if st := d.stats[0].snapshot(); st.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1 (the hole)", st.Retransmits)
	}
	if n := d.count(func(d dgramInfo) bool { return d.resent() && !slices.Equal(d.frames, []uint64{10}) }); n != 0 {
		t.Fatalf("%d datagrams resent frames that had arrived", n)
	}
}

// (e) The re-arm regression: a frame first sent just after a timer round
// is resent within 1.5x the RTO then in force, counted from its own
// send. The fixed-timer layer left it waiting for the backed-off event
// of the frame before it, 2x the RTO away.
func TestRecoveryTimerRearmsForEarlierDeadline(t *testing.T) {
	const oneWay = 2 * time.Millisecond
	d := newDuo(Config{RTO: 400 * time.Millisecond, AckDelay: 5 * time.Millisecond}, func(d dgramInfo) verdict {
		if d.data(9, 1) || d.data(10, 1) {
			return drop
		}
		return pass
	})
	d.warmUp(t)
	d.sendSeqs(t, 0, 9, 9)
	d.await(t, oneWay, func(d dgramInfo) bool { return d.data(9, 2) })
	rto := d.ch[0].rto()
	d.sendSeqs(t, 0, 10, 10)
	first := d.log[len(d.log)-1]
	again := d.await(t, oneWay, func(d dgramInfo) bool { return d.data(10, 2) })
	if age := again.at.Sub(first.at); age > rto*3/2 {
		t.Fatalf("frame resent %v after its send, RTO in force %v: it waited for another frame's timer", age, rto)
	}
	d.settle(t, oneWay, 10)
	if st := d.stats[0].snapshot(); st.FastRetransmits != 0 {
		t.Fatalf("FastRetransmits = %d; this test is about the timer", st.FastRetransmits)
	}
}

// (f) Karn and retention: on a loss-free path whose round trip is 4x
// Config.RTO every frame of the first window is resent before its ack
// can arrive, so no ack yields a sample (Karn); the retained back-off and
// the bound those acks do give must carry the timer past the round trip
// until one does. From then on no frame is resent younger than a round
// trip.
func TestRecoveryEstimatorSurvivesRTTAboveInitialRTO(t *testing.T) {
	cfg := Config{RTO: 10 * time.Millisecond, Window: 64}
	rtt := 4 * cfg.RTO
	d := newDuo(cfg, nil)
	const window, total = 64, 13 * 64
	for seq := uint64(1); seq <= total; seq++ {
		d.flow(t, rtt/2, func() bool { return len(d.ch[0].unacked) < window })
		if err := d.send(0, nil, binary.BigEndian.AppendUint64(nil, seq), false); err != nil {
			t.Fatal(err)
		}
	}
	d.settle(t, rtt/2, total)
	var early, earlyAfter3 int
	last := make(map[uint64]time.Time)
	for _, l := range d.log {
		for _, seq := range l.frames {
			if prev, resent := last[seq]; resent && l.at.Sub(prev) < rtt {
				if early++; seq > 3*window {
					earlyAfter3++
				}
			}
			last[seq] = l.at
		}
	}
	t.Logf("%d premature retransmissions over %d frames", early, total)
	if earlyAfter3 != 0 {
		t.Fatalf("%d frames past the third window resent before a round trip had passed: the estimator never settled", earlyAfter3)
	}
	if limit := 10 * window / 4; early > limit {
		t.Fatalf("%d premature retransmissions over the first %d frames, want <= %d", early, 10*window, limit)
	}
	if srtt, rto := d.ch[0].srtt, d.ch[0].rto(); srtt < rtt || rto <= srtt {
		t.Fatalf("RTT = %v, RTO = %v on a %v path", srtt, rto, rtt)
	}
}

// A staged frame has not been on the wire until its batch leaves, however
// long ago send took it: the ack of a retransmission made in between must
// not condemn it as sent before something that arrived.
func TestRecoveryStagedFramesNotCondemned(t *testing.T) {
	staged := false
	d := newDuo(recoveryCfg, func(d dgramInfo) verdict {
		switch {
		case d.data(9, 1):
			return drop
		case d.carries(17) && len(d.frames) > 1 && !staged:
			staged = true
			return swap // the batch arrives behind the resent hole, so the hole's ack comes first
		}
		return pass
	})
	d.warmUp(t)
	d.sendSeqs(t, 0, 9, 16)  // ackEvery transmitted frames in flight, the first of them lost...
	d.sendSeqs(t, 0, 17, 20) // ...so these four are staged, a round trip before 9 is resent
	// The first ack back names 10 and releases the stage; the third
	// condemns 9. The resent 9 overtakes the batch, so the ack that covers
	// it finds the batch's frames unacknowledged: they left just before
	// the resend, but were handed to send a round trip before it.
	d.await(t, recoveryOneWay, func(d dgramInfo) bool { return d.data(9, 2) })
	d.settle(t, recoveryOneWay, 20)
	st := d.stats[0].snapshot()
	if !staged || st.Retransmits != 1 {
		t.Fatalf("staged %v, Retransmits = %d, want 1: staged frames were timed from their send, not from when they left", staged, st.Retransmits)
	}
	if st.FlushAck == 0 || st.FlushBackstop != 0 {
		t.Fatalf("FlushAck = %d, FlushBackstop = %d: the stage should have left on an ack", st.FlushAck, st.FlushBackstop)
	}
}

// Frames lost together are resent together: the ack that condemns one
// condemns both, and they leave in one datagram, in seq order.
func TestRecoveryLostPairResentTogether(t *testing.T) {
	d := newDuo(recoveryCfg, func(d dgramInfo) verdict {
		if d.data(9, 1) || d.data(10, 1) {
			return drop
		}
		return pass
	})
	d.warmUp(t)
	d.sendSeqs(t, 0, 9, 13)
	if l := d.await(t, recoveryOneWay, func(d dgramInfo) bool { return d.data(9, 2) }); !slices.Equal(l.frames, []uint64{9, 10}) {
		t.Fatalf("9 was resent in a datagram carrying %v, want [9 10]", l.frames)
	}
	d.settle(t, recoveryOneWay, 13)
	if st := d.stats[0].snapshot(); st.Retransmits != 2 || st.FastRetransmits != 2 {
		t.Fatalf("Retransmits = %d, FastRetransmits = %d, want 2 and 2", st.Retransmits, st.FastRetransmits)
	}
	if n := d.count(dgramInfo.resent); n != 1 {
		t.Fatalf("%d datagrams resent frames, want 1", n)
	}
}

// A retransmission carries the ack its peer is owed, so no bare ack
// follows it: not at once, and not when the delayed ack comes due.
func TestRecoveryResendCarriesOwedAck(t *testing.T) {
	cfg := recoveryCfg
	cfg.AckDelay = 300 * time.Millisecond
	d := newDuo(cfg, dropCopies(10, 1))
	d.warmUp(t)
	d.sendSeqs(t, 0, 9, 13)
	// b's frame reaches a ahead of the acks that condemn 10 — the line is
	// FIFO — so a owes b an ack when it resends.
	d.sendSeqs(t, 1, 1, 1)
	if l := d.await(t, recoveryOneWay, func(d dgramInfo) bool { return d.data(10, 2) }); !l.hasCum || l.cum != 1 {
		t.Fatalf("the resent 10 carries an ack: %v, cum %d; want cum 1, b's frame", l.hasCum, l.cum)
	}
	d.settle(t, recoveryOneWay, 13)
	d.flow(t, recoveryOneWay, func() bool { return len(d.rx[0]) == 1 && d.depth(1) == 0 })
	d.sleep(t, recoveryOneWay, cfg.AckDelay+50*time.Millisecond) // a's delayed ack for b's frame comes due
	if n := d.count(func(d dgramInfo) bool { return d.fromA && d.bareAck() }); n != 0 {
		t.Fatalf("a sent %d bare acks after its retransmission had carried the ack", n)
	}
	if st := d.stats[0].snapshot(); st.AcksSent != 0 || st.AcksPiggybacked != 1 {
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
	d := newDuo(cfg, func(d dgramInfo) verdict {
		// Lose the first copy of every datagram carrying a multiple of 16,
		// short of the tail, where too little follows to condemn it.
		for i, seq := range d.frames {
			if d.fromA && d.copies[i] == 1 && seq%16 == 0 && seq < total-16 {
				return drop
			}
		}
		return pass
	})
	for seq := uint64(1); seq <= total; seq++ {
		payload := binary.BigEndian.AppendUint64(make([]byte, 0, size(seq)), seq)
		if err := d.send(0, nil, payload[:size(seq)], false); err != nil {
			t.Fatal(err)
		}
		d.flow(t, time.Millisecond, func() bool { return true })
	}
	d.settle(t, time.Millisecond, total)
	for _, l := range d.log {
		if len(l.frames) > 1 && l.frameBytes > datagramBudget {
			t.Errorf("a datagram of %d frames carries %d bytes of them, budget %d", len(l.frames), l.frameBytes, datagramBudget)
		}
	}
	if n := d.count(func(d dgramInfo) bool { return d.resent() && len(d.frames) > 1 }); n == 0 {
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
