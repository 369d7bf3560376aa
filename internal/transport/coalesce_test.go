package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
)

// The coalescing tests run two channel machines on a virtual clock (see
// duo) and read the datagram log: the only timer any of them lets fire
// is the retransmission timer in the backstop test, which is what that
// test is about. Every other one keeps RTO and AckDelay seconds away, so
// a wait on either shows as a failed count.

// coalesceCfg puts both of the layer's clocks out of a test's reach.
var coalesceCfg = Config{RTO: 20 * time.Second, AckDelay: 10 * time.Second}

// timerFree fails the test if the retransmission timer sent anything: a
// staged batch, or a frame again.
func timerFree(t *testing.T, st Stats) {
	t.Helper()
	if st.FlushBackstop != 0 || st.Retransmits != st.FastRetransmits {
		t.Fatalf("the retransmission timer had to act: %+v", st)
	}
}

// (i) Nagle meeting delayed acks: a sender that waits for each delivery
// before its next send never has a frame held back, although every
// earlier frame is still unacknowledged and the receiver is sitting on
// the ack for AckDelay. Unacknowledged frames are no sign of an ack on
// its way; only ackEvery of them are.
func TestCoalescePulsedSenderNeverWaits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames uint64
		onWire bool // every frame must be written by its send
	}{
		{"acks out of reach", ackEvery - 1, true}, // no ack at all within the test: nothing may be staged
		{"default AckEvery", 20, false},           // frames 9 and 17 may be staged, for an ack already written
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coalesceCfg
			cfg.AckDelay = time.Second
			d := newDuo(cfg, nil)
			start := d.now
			for seq := uint64(1); seq <= tc.frames; seq++ {
				d.sendSeqs(t, 0, seq, seq)
				if n := d.count(func(d dgramInfo) bool { return d.carries(seq) }); tc.onWire && n != 1 {
					t.Fatalf("frame %d on the wire %d times when its send returned, want 1", seq, n)
				}
				d.flow(t, 0, func() bool { return len(d.rx[1]) == int(seq) })
			}
			if took := d.now.Sub(start); took >= cfg.AckDelay {
				t.Fatalf("%d pulsed frames took %v: one waited out the peer's AckDelay", tc.frames, took)
			}
			timerFree(t, d.stats[0].snapshot())
		})
	}
}

// (ii) A stream fills datagrams: once ackEvery frames are in flight the
// rest ride in batches that acks and the window release, never the timer.
// The sender fills its window at once, the worst case: each window's
// acks arrive together and drain it, so the next window's first ackEvery
// frames go alone to restart the clock.
func TestCoalesceStreamFillsDatagrams(t *testing.T) {
	cfg := coalesceCfg
	cfg.Window = 64
	d := newDuo(cfg, nil)
	const total = 1000
	payload := make([]byte, 64)
	for seq := uint64(1); seq <= total; seq++ {
		d.flow(t, 500*time.Microsecond, func() bool { return len(d.ch[0].unacked) < cfg.Window })
		if err := d.send(0, nil, binary.BigEndian.AppendUint64(payload[:0], seq)[:64], false); err != nil {
			t.Fatal(err)
		}
	}
	d.settle(t, 500*time.Microsecond, total)
	dgrams := d.count(func(d dgramInfo) bool { return d.fromA && len(d.frames) > 0 })
	st := d.stats[0].snapshot()
	t.Logf("%d frames in %d datagrams; flushes: size %d, ack %d, window %d", total, dgrams, st.FlushSize, st.FlushAck, st.FlushWindow)
	if dgrams*5 > total {
		t.Fatalf("%d frames took %d datagrams: under 5 frames per datagram", total, dgrams)
	}
	timerFree(t, st)
}

// (iii) An arriving ack is what releases the stage.
func TestCoalesceAckReleasesStage(t *testing.T) {
	// The ack of frames 1..8 is held on the line until b writes its next
	// datagram, so the test decides when it arrives.
	d := newDuo(coalesceCfg, func(d dgramInfo) verdict {
		if !d.fromA && d.bareAck() {
			return swap
		}
		return pass
	})
	d.sendSeqs(t, 0, 1, 8)
	d.await(t, 0, func(d dgramInfo) bool { return !d.fromA && d.bareAck() && d.cum == 8 })
	d.sendSeqs(t, 0, 9, 9) // ackEvery frames in flight: staged
	if n := d.count(func(d dgramInfo) bool { return d.carries(9) }); n != 0 {
		t.Fatal("frame 9 was written with ackEvery frames unacknowledged")
	}
	d.sendSeqs(t, 1, 1, 1) // pushes the held ack out behind it
	if l := d.await(t, 0, func(d dgramInfo) bool { return d.carries(9) }); !l.hasCum || l.cum != 1 {
		t.Fatalf("frame 9 left without the ack b's frame was owed (ack %v, cum %d)", l.hasCum, l.cum)
	}
	d.settle(t, 0, 9)
	st := d.stats[0].snapshot()
	if st.FlushAck != 1 || st.FlushBackstop != 0 {
		t.Fatalf("FlushAck = %d, FlushBackstop = %d, want 1 and 0", st.FlushAck, st.FlushBackstop)
	}
	if st.AcksSent != 0 || st.AcksPiggybacked != 1 {
		t.Fatalf("AcksSent = %d, AcksPiggybacked = %d: the batch should have carried the ack b's frame was owed", st.AcksSent, st.AcksPiggybacked)
	}
}

// (iv) With every ack lost the retransmission timer is the backstop: it
// sends the staged frames in their batch, and does not also resend them —
// they have never been on the wire.
func TestCoalesceBackstopFlushesStage(t *testing.T) {
	cfg := Config{RTO: 30 * time.Millisecond, AckDelay: time.Millisecond}
	d := newDuo(cfg, func(d dgramInfo) verdict {
		if !d.fromA {
			return drop
		}
		return pass
	})
	d.sendSeqs(t, 0, 1, 8)
	sent := d.now
	d.sendSeqs(t, 0, 9, 11) // staged behind ackEvery frames whose ack never comes
	batch := d.await(t, 0, func(d dgramInfo) bool { return d.carries(11) })
	if !slices.Equal(batch.frames, []uint64{9, 10, 11}) {
		t.Fatalf("frames 9..11 left in a datagram carrying %v, want one batch of three", batch.frames)
	}
	if age := batch.at.Sub(sent); age < cfg.RTO {
		t.Fatalf("the stage left after %v with no ack to release it, RTO %v", age, cfg.RTO)
	}
	d.sleep(t, 0, cfg.RTO/2)
	for _, l := range d.log {
		for i, seq := range l.frames {
			if l.fromA && seq >= 9 && l.copies[i] > 1 {
				t.Errorf("staged frame %d was sent again %v after its batch", seq, l.at.Sub(batch.at))
			}
		}
	}
	if got := len(d.rx[1]); got != 11 {
		t.Fatalf("%d of 11 frames delivered", got)
	}
	if st := d.stats[0].snapshot(); st.FlushBackstop == 0 {
		t.Fatalf("FlushBackstop = 0: %+v", st)
	}
}

// (v) Sparse two-way traffic needs no ack packets: a frame that goes
// alone carries the ack its peer is owed.
func TestCoalesceLoneFramesCarryOwedAck(t *testing.T) {
	d := newDuo(coalesceCfg, nil)
	const rounds = 20
	for i := uint64(0); i < rounds; i++ {
		d.sendSeqs(t, 0, 2*i+1, 2*i+2)
		if n := d.count(func(d dgramInfo) bool { return d.carries(2*i+1) || d.carries(2*i+2) }); n != 2 {
			t.Fatalf("round %d: %d datagrams on the wire when two sends returned, want 2", i, n)
		}
		d.flow(t, 0, func() bool { return len(d.rx[1]) == int(2*i+2) })
		d.sendSeqs(t, 1, i+1, i+1)
		d.flow(t, 0, func() bool { return len(d.rx[0]) == int(i+1) })
	}
	sa, sb := d.stats[0].snapshot(), d.stats[1].snapshot()
	if sa.AcksSent != 0 || sb.AcksSent != 0 || d.count(dgramInfo.bareAck) != 0 {
		t.Fatalf("bare acks on a two-way channel: a sent %d, b sent %d", sa.AcksSent, sb.AcksSent)
	}
	// Every frame after a's first found an ack owed, except the second of
	// each of a's pairs: the first had just carried it.
	if sa.AcksPiggybacked != rounds-1 || sb.AcksPiggybacked != rounds {
		t.Fatalf("AcksPiggybacked = %d and %d, want %d and %d", sa.AcksPiggybacked, sb.AcksPiggybacked, rounds-1, rounds)
	}
	if sa.FlushSize+sa.FlushAck+sa.FlushWindow+sa.FlushBackstop != 0 {
		t.Fatalf("a lone frame counted as a flush of staged ones: %+v", sa)
	}
}

// Staged frames hold window slots that nothing but their acks can free,
// so they leave when the window fills: before AwaitWindow waits, and at
// a Send that puts its frame in the backlog.
func TestCoalesceFullWindowFlushesStage(t *testing.T) {
	cfg := coalesceCfg
	cfg.Window = 2 * ackEvery
	t.Run("AwaitWindow", func(t *testing.T) { // the wait is the driver's: a real layer over a slow link
		_, ra, rb := pairOn(t, "a", "b", cfg, netsim.WithTimeScale(1), netsim.WithDefaultDelay(netsim.Constant(time.Millisecond)))
		done := make(chan error, 1)
		go func() { done <- recvSeqs(rb, 1, 200) }()
		sendSeqs(t, ra, rb.LocalAddr(), 1, 200)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		timerFree(t, ra.Stats())
		if st := ra.Stats(); st.FlushWindow == 0 {
			t.Fatalf("FlushWindow = 0 with a window of two ackEvery: %+v", st)
		}
	})
	t.Run("backlog", func(t *testing.T) {
		d := newDuo(cfg, nil)
		total := uint64(cfg.Window * backlogWindows) // the window and all but one window of backlog
		for seq := uint64(1); seq <= total; seq++ {
			if err := d.send(0, nil, binary.BigEndian.AppendUint64(make([]byte, 0, 64), seq)[:64], false); err != nil {
				t.Fatal(err)
			}
		}
		d.settle(t, 500*time.Microsecond, total)
		timerFree(t, d.stats[0].snapshot())
		if st := d.stats[0].snapshot(); st.FlushWindow == 0 || st.BacklogFull != 0 {
			t.Fatalf("FlushWindow = %d, BacklogFull = %d with a window of two ackEvery: %+v", st.FlushWindow, st.BacklogFull, st)
		}
	})
}

// A batch never outgrows the datagram budget, whatever mix of sizes is
// sent: the check comes before the frame is appended.
func TestCoalesceBatchWithinBudget(t *testing.T) {
	cfg := coalesceCfg
	cfg.Window = 256
	d := newDuo(cfg, nil)
	const sizes = 1500
	size := func(i int) int { return i*7919%sizes + 1 } // every size from 1 to 1500 once, large among small
	for i := 0; i < sizes; i++ {
		if err := d.send(0, nil, make([]byte, size(i)), false); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 { // now and then a owes b an ack, for a lone frame to carry
			d.sleep(t, 200*time.Microsecond, time.Millisecond)
			if err := d.send(1, nil, []byte{0}, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.flow(t, 200*time.Microsecond, func() bool { return len(d.rx[1]) == sizes })
	for i, f := range d.rx[1] {
		if len(f.payload) != size(i) {
			t.Fatalf("frame %d arrived with %d bytes, want %d", i+1, len(f.payload), size(i))
		}
	}
	for _, l := range d.log {
		if len(l.frames) > 1 && l.frameBytes > datagramBudget {
			t.Errorf("a datagram of %d frames carries %d bytes of them, budget %d", len(l.frames), l.frameBytes, datagramBudget)
		}
	}
	if d.count(func(d dgramInfo) bool { return len(d.frames) > 1 }) == 0 {
		t.Fatal("no batch of two or more frames: the test exercised nothing")
	}
}

// sendSeqs sends seqs first..last from r to to, as an application does,
// with SendWait.
func sendSeqs(t *testing.T, r *endpoint, to netsim.Addr, first, last uint64) {
	t.Helper()
	for seq := first; seq <= last; seq++ {
		if err := r.SendWait(to, nil, binary.BigEndian.AppendUint64(nil, seq)); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
}

// recvSeqs reads seqs first..last at r, in order.
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

// awaitDepth waits until r holds exactly n unacknowledged frames.
func awaitDepth(t *testing.T, r *endpoint, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); r.QueueDepth() != n; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth = %d, want %d", r.QueueDepth(), n)
		}
	}
}
