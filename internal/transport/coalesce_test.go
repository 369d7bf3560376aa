package transport

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// The coalescing tests run over the scripted pipe and wait on datagrams,
// never on the clock: the only timer any of them lets fire is the
// retransmission timer in the backstop test, which is what that test is
// about. Every other one keeps RTO and AckDelay seconds away, so a wait
// on either shows as a failed count, not as a slow pass.

// coalesceCfg puts both of the layer's clocks out of a test's reach.
var coalesceCfg = Config{RTO: 20 * time.Second, AckDelay: 10 * time.Second}

// timerFree fails the test if r's retransmission timer sent anything: a
// staged batch, or a frame again. (An ack may still resend a frame: the
// sender and the receive path both write batches, and when the scheduler
// lets one overtake the other the peer sees a reordering.)
func timerFree(t *testing.T, r *endpoint) {
	t.Helper()
	if st := r.Stats(); st.FlushBackstop != 0 || st.Retransmits != st.FastRetransmits {
		t.Fatalf("the retransmission timer had to act: %+v", st)
	}
}

// stream sends seqs 1..total from ra to rb as size-byte frames, as fast
// as an application sender can, and waits for their in-order delivery.
func stream(t *testing.T, ra, rb *endpoint, total uint64, size int) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- recvSeqs(rb, 1, total) }()
	payload := make([]byte, size)
	for seq := uint64(1); seq <= total; seq++ {
		binary.BigEndian.PutUint64(payload, seq) // what recvSeqs checks
		if err := ra.SendWait(rb.LocalAddr(), nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// (i) Nagle meeting delayed acks: a sender that waits for each delivery
// before its next Send never has a frame held back, although every
// earlier frame is still unacknowledged and the receiver is sitting on
// the ack for AckDelay. Unacknowledged frames are no sign of an ack on
// its way; only ackEvery of them are.
func TestCoalescePulsedSenderNeverWaits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames uint64
		onWire bool // every frame must be written before its Send returns
	}{
		{"acks out of reach", ackEvery - 1, true}, // no ack at all within the test: nothing may be staged
		{"default AckEvery", 20, false},           // frames 9 and 17 may be staged, for an ack already written
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coalesceCfg
			cfg.AckDelay = time.Second
			p, ra, rb := pipePair(t, 0, cfg, nil)
			to := rb.LocalAddr()
			start := time.Now()
			for seq := uint64(1); seq <= tc.frames; seq++ {
				sendSeqs(t, ra, to, seq, seq)
				if n := p.count(func(d dgramInfo) bool { return d.carries(seq) }); tc.onWire && n != 1 {
					t.Fatalf("frame %d on the wire %d times when Send returned, want 1", seq, n)
				}
				expectSeqs(t, rb, seq, seq)
			}
			if d := time.Since(start); d >= cfg.AckDelay {
				t.Fatalf("%d pulsed frames took %v: one waited out the peer's AckDelay", tc.frames, d)
			}
			timerFree(t, ra)
		})
	}
}

// (ii) A stream fills datagrams: once ackEvery frames are in flight the
// rest ride in batches that acks and the window release, never the timer.
// The sender fills its window well inside a round trip, the worst case:
// each window's acks arrive together and drain it, so the next window's
// first ackEvery frames go alone to restart the clock and 64 frames take
// 8 + ceil(56/17) = 12 datagrams.
func TestCoalesceStreamFillsDatagrams(t *testing.T) {
	cfg := coalesceCfg
	cfg.Window = 64
	p, ra, rb := pipePair(t, 500*time.Microsecond, cfg, nil)
	const total = 1000
	stream(t, ra, rb, total, 64)
	awaitDepth(t, ra, 0)
	dgrams := p.count(func(d dgramInfo) bool { return d.fromA && len(d.frames) > 0 })
	st := ra.Stats()
	t.Logf("%d frames in %d datagrams; flushes: size %d, ack %d, window %d", total, dgrams, st.FlushSize, st.FlushAck, st.FlushWindow)
	if dgrams*5 > total {
		t.Fatalf("%d frames took %d datagrams: under 5 frames per datagram", total, dgrams)
	}
	timerFree(t, ra)
}

// (iii) An arriving ack is what releases the stage.
func TestCoalesceAckReleasesStage(t *testing.T) {
	// The ack of frames 1..8 is held in the pipe until b writes its next
	// datagram, so the test decides when it arrives.
	p, ra, rb := pipePair(t, 0, coalesceCfg, func(d dgramInfo) verdict {
		if !d.fromA && d.bareAck() {
			return swap
		}
		return pass
	})
	to := rb.LocalAddr()
	sendSeqs(t, ra, to, 1, 8)
	expectSeqs(t, rb, 1, 8)
	p.await(t, "the ack of 1..8", func(d dgramInfo) bool { return !d.fromA && d.bareAck() && d.cum == 8 })
	sendSeqs(t, ra, to, 9, 9) // ackEvery frames in flight: staged
	if n := p.count(func(d dgramInfo) bool { return d.carries(9) }); n != 0 {
		t.Fatal("frame 9 was written with ackEvery frames unacknowledged")
	}
	if err := rb.Send(ra.LocalAddr(), nil, []byte("go")); err != nil { // pushes the held ack out behind it
		t.Fatal(err)
	}
	d := p.await(t, "frame 9", func(d dgramInfo) bool { return d.carries(9) })
	if !d.hasCum || d.cum != 1 {
		t.Fatalf("frame 9 left without the ack b's frame was owed (ack %v, cum %d)", d.hasCum, d.cum)
	}
	expectSeqs(t, rb, 9, 9)
	st := ra.Stats()
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
	p, ra, rb := pipePair(t, 0, cfg, func(d dgramInfo) verdict {
		if !d.fromA {
			return drop
		}
		return pass
	})
	to := rb.LocalAddr()
	sendSeqs(t, ra, to, 1, 8)
	sendSeqs(t, ra, to, 9, 11) // staged behind ackEvery frames whose ack never comes
	batch := p.await(t, "the staged frames", func(d dgramInfo) bool { return d.carries(11) })
	if !slices.Equal(batch.frames, []uint64{9, 10, 11}) {
		t.Fatalf("frames 9..11 left in a datagram carrying %v, want one batch of three", batch.frames)
	}
	if age := batch.at.Sub(p.await(t, "data 1", func(d dgramInfo) bool { return d.data(1, 1) }).at); age < cfg.RTO {
		t.Fatalf("the stage left after %v with no ack to release it, RTO %v", age, cfg.RTO)
	}
	expectSeqs(t, rb, 1, 11)
	p.mu.Lock()
	for _, d := range p.log {
		for i, seq := range d.frames {
			if d.fromA && seq >= 9 && d.copies[i] > 1 && d.at.Before(batch.at.Add(cfg.RTO/2)) {
				t.Errorf("staged frame %d was sent again %v after its batch", seq, d.at.Sub(batch.at))
			}
		}
	}
	p.mu.Unlock()
	if st := ra.Stats(); st.FlushBackstop == 0 {
		t.Fatalf("FlushBackstop = 0: %+v", st)
	}
}

// (v) Sparse two-way traffic needs no ack packets: a frame that goes
// alone carries the ack its peer is owed.
func TestCoalesceLoneFramesCarryOwedAck(t *testing.T) {
	p, ra, rb := pipePair(t, 0, coalesceCfg, nil)
	const rounds = 20
	for i := uint64(0); i < rounds; i++ {
		sendSeqs(t, ra, rb.LocalAddr(), 2*i+1, 2*i+2)
		if n := p.count(func(d dgramInfo) bool { return d.carries(2*i+1) || d.carries(2*i+2) }); n != 2 {
			t.Fatalf("round %d: %d datagrams on the wire when two Sends returned, want 2", i, n)
		}
		expectSeqs(t, rb, 2*i+1, 2*i+2)
		sendSeqs(t, rb, ra.LocalAddr(), i+1, i+1)
		expectSeqs(t, ra, i+1, i+1)
	}
	sa, sb := ra.Stats(), rb.Stats()
	if sa.AcksSent != 0 || sb.AcksSent != 0 || p.count(dgramInfo.bareAck) != 0 {
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
	t.Run("AwaitWindow", func(t *testing.T) {
		_, ra, rb := pipePair(t, 500*time.Microsecond, cfg, nil)
		stream(t, ra, rb, 200, 64)
		timerFree(t, ra)
		if st := ra.Stats(); st.FlushWindow == 0 {
			t.Fatalf("FlushWindow = 0 with a window of two ackEvery: %+v", st)
		}
	})
	t.Run("backlog", func(t *testing.T) {
		_, ra, rb := pipePair(t, 500*time.Microsecond, cfg, nil)
		total := uint64(cfg.Window * backlogWindows) // the window and all but one window of backlog
		done := make(chan error, 1)
		go func() { done <- recvSeqs(rb, 1, total) }()
		for seq := uint64(1); seq <= total; seq++ {
			if err := ra.Send(rb.LocalAddr(), nil, binary.BigEndian.AppendUint64(make([]byte, 0, 64), seq)[:64]); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		timerFree(t, ra)
		if st := ra.Stats(); st.FlushWindow == 0 || st.BacklogFull != 0 {
			t.Fatalf("FlushWindow = %d, BacklogFull = %d with a window of two ackEvery: %+v", st.FlushWindow, st.BacklogFull, st)
		}
	})
}

// assertWithinBudget fails the test for every logged datagram longer than
// a full header and datagramBudget of frames, unless it is one frame too
// large for the budget, which travels alone.
func assertWithinBudget(t *testing.T, p *pipe) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.log {
		if d.size > dgramHdrMax+datagramBudget && len(d.frames) > 1 {
			t.Errorf("a datagram of %d frames is %d bytes long, budget %d", len(d.frames), d.size, dgramHdrMax+datagramBudget)
		}
	}
}

// A batch never outgrows the datagram budget, whatever mix of sizes is
// sent: the check comes before the frame is appended.
func TestCoalesceBatchWithinBudget(t *testing.T) {
	cfg := coalesceCfg
	cfg.Window = 256
	p, ra, rb := pipePair(t, 200*time.Microsecond, cfg, nil)
	const sizes = 1500
	size := func(i int) int { return i*7919%sizes + 1 } // every size from 1 to 1500 once, large among small
	var bad atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sizes; i++ {
			got, _, err := recvTimeout(rb, 10*time.Second)
			if err != nil || len(got) != size(i) {
				bad.Add(1)
				return
			}
			if i%25 == 0 { // now and then a owes b an ack, for a lone frame to carry
				if err := rb.Send(ra.LocalAddr(), nil, []byte{0}); err != nil {
					bad.Add(1)
					return
				}
			}
		}
	}()
	for i := 0; i < sizes; i++ {
		if err := ra.Send(rb.LocalAddr(), nil, make([]byte, size(i))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if bad.Load() != 0 {
		t.Fatal("a frame was lost or arrived with the wrong size")
	}
	assertWithinBudget(t, p)
	if p.count(func(d dgramInfo) bool { return len(d.frames) > 1 }) == 0 {
		t.Fatal("no batch of two or more frames: the test exercised nothing")
	}
}
