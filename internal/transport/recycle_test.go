package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
)

// An acknowledged frame's outPkt and buffers go back to its peer's free
// list for the next Send. These tests check the frames that must not go
// back — staged ones an ack has covered, and failed ones, whose
// SendFailure.Hdr and Payload alias their buffers — and that a long
// stream through a small window, every buffer reused many times over,
// delivers every payload intact.

// freeSeqs returns the seqs of the frames on r's free list for to.
func freeSeqs(r *endpoint, to netsim.Addr) []uint64 {
	p := r.peer(to)
	p.mu.Lock()
	defer p.mu.Unlock()
	var seqs []uint64
	for _, pkt := range p.free {
		seqs = append(seqs, pkt.seq)
	}
	return seqs
}

// stagedCount returns how many frames r holds staged for to.
func stagedCount(r *endpoint, to netsim.Addr) int {
	p := r.peer(to)
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.staged)
}

// (a) An ack from a confused peer, clamped to nextSeq, covers frames
// still waiting in the stage. They are not recycled: they leave intact
// and are delivered exactly once, in order, with the frames after them
// built in the buffers that were.
func TestRecycleStagedFramesSurviveClampedAck(t *testing.T) {
	_, ra, rb := pipePair(t, 50*time.Millisecond, coalesceCfg, nil)
	to := rb.LocalAddr()
	const total = 200
	sendSeqs(t, ra, to, 1, ackEvery+4) // the last four wait for the first eight's ack
	staged := stagedCount(ra, to)
	ra.handleDatagram(to, appendHeader(nil, true, 1<<40, 0, false))
	for _, seq := range freeSeqs(ra, to) {
		if seq > ackEvery+4-uint64(staged) {
			t.Fatalf("staged frame %d went to the free list (staged: %d, free: %v)", seq, staged, freeSeqs(ra, to))
		}
	}
	if staged == 0 {
		t.Log("this process stalled for a round trip between two Sends: nothing was staged")
	}
	sendSeqs(t, ra, to, ackEvery+5, total)
	expectSeqs(t, rb, 1, total)
	if got, _, err := recvTimeout(rb, 100*time.Millisecond); err == nil {
		t.Fatalf("delivered again after seq %d: % x", total, got)
	}
}

// (b) A failed frame is not recycled: its SendFailure keeps its header
// and payload through 200 further Sends to the same peer under changing
// headers, each acknowledged so that its buffers are reused by the next.
// The frame that fails left its header out, as the frame before it
// carried the same one; the failure reports it all the same.
func TestRecycleFailurePayloadSurvives(t *testing.T) {
	cfg := Config{RTO: 10 * time.Millisecond, MaxRetries: 1}
	p, ra, rb := pipePair(t, time.Millisecond, cfg, func(d dgramInfo) verdict {
		if d.fromA {
			return drop // b never hears from a; the test hands a its acks
		}
		return pass
	})
	to := rb.LocalAddr()
	hdr, want := []byte("the header of both"), []byte("the frame that never arrived")
	for range 2 {
		if err := ra.Send(to, hdr, bytes.Clone(want)); err != nil {
			t.Fatal(err)
		}
	}
	copy(hdr, "overwritten by the caller")
	var f SendFailure
	for f.Seq != 2 {
		select {
		case f = <-ra.Failures():
		case <-time.After(10 * time.Second):
			t.Fatal("no failure for a frame whose every copy was dropped")
		}
	}
	if d := p.await(t, "seq 2", func(d dgramInfo) bool { return d.carries(2) }); d.inline[0] {
		t.Fatal("seq 2 carried the header seq 1 had just carried")
	}
	const wantHdr = "the header of both"
	if string(f.Hdr) != wantHdr || !bytes.Equal(f.Payload, want) {
		t.Fatalf("failure for seq 2 carries %q, %q; want %q, %q", f.Hdr, f.Payload, wantHdr, want)
	}
	for seq := uint64(3); seq <= 202; seq++ {
		h := bytes.Repeat([]byte{byte(seq / 3)}, len(wantHdr)) // a new header every third Send
		if err := ra.Send(to, h, bytes.Repeat([]byte{byte(seq)}, len(want))); err != nil {
			t.Fatal(err)
		}
		ra.handleDatagram(to, appendHeader(nil, true, seq, 0, false))
	}
	if len(freeSeqs(ra, to)) == 0 {
		t.Fatal("nothing on the free list: the test exercised no reuse")
	}
	if string(f.Hdr) != wantHdr || !bytes.Equal(f.Payload, want) {
		t.Fatalf("failure changed under later Sends: %q, %q; want %q, %q", f.Hdr, f.Payload, wantHdr, want)
	}
}

// (c) Through a window of 8, 10 000 messages of assorted sizes, some
// larger than a datagram, cross a pipe that drops and swaps first
// copies and loses an occasional ack: every payload arrives once, in
// order and byte-identical.
func TestRecycleStreamUnderDropAndSwap(t *testing.T) {
	const total = 10000
	size := func(seq uint64) int {
		if seq%101 == 0 {
			return 1500
		}
		return 8 + int(seq*7919%300)
	}
	fill := func(b []byte, seq uint64) []byte {
		b = b[:size(seq)]
		binary.BigEndian.PutUint64(b, seq)
		for i := 8; i < len(b); i++ {
			b[i] = byte(seq) ^ byte(i*31)
		}
		return b
	}
	cfg := Config{RTO: 20 * time.Millisecond, Window: 8}
	acks := 0 // the rule runs under the pipe's lock
	_, ra, rb := pipePair(t, 0, cfg, func(d dgramInfo) verdict {
		for i, seq := range d.frames {
			if d.fromA && d.copies[i] == 1 {
				switch {
				case seq%97 == 0:
					return drop
				case seq%89 == 0:
					return swap
				}
			}
		}
		if !d.fromA && d.bareAck() {
			if acks++; acks%50 == 0 {
				return drop
			}
		}
		return pass
	})
	done := make(chan error, 1)
	go func() {
		want := make([]byte, 1500)
		for seq := uint64(1); seq <= total; seq++ {
			got, _, err := recvTimeout(rb, 10*time.Second)
			if err != nil {
				done <- fmt.Errorf("recv %d: %w", seq, err)
				return
			}
			if w := fill(want, seq); !bytes.Equal(got, w) {
				done <- fmt.Errorf("payload %d arrived as %d bytes % x..., want %d bytes % x...", seq, len(got), got[:min(len(got), 12)], len(w), w[:12])
				return
			}
		}
		done <- nil
	}()
	payload := make([]byte, 1500)
	for seq := uint64(1); seq <= total; seq++ {
		if err := ra.SendWait(rb.LocalAddr(), nil, fill(payload, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, _, err := recvTimeout(rb, 50*time.Millisecond); err == nil {
		t.Fatalf("delivered again after seq %d: % x", total, got[:8])
	}
	if st := ra.Stats(); st.Retransmits == 0 || st.Failures != 0 {
		t.Fatalf("Retransmits = %d, Failures = %d, want some and none", st.Retransmits, st.Failures)
	}
}

// In the steady state a Send whose frame is then acknowledged allocates
// nothing: the outPkt and its frame buffer come off the free list.
func TestRecycleSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	r := newEndpoint(newNullConn(), Config{RTO: time.Hour})
	defer r.Close()
	peer := netsim.Addr{Host: "peer", Port: 1}
	payload, ack := make([]byte, 64), make([]byte, 0, dgramHdrMax)
	var seq uint64
	sendAcked := func() {
		seq++
		if err := r.Send(peer, nil, payload); err != nil {
			t.Fatal(err)
		}
		r.handleDatagram(peer, appendHeader(ack[:0], true, seq, 0, false))
	}
	for range 100 {
		sendAcked()
	}
	if allocs := testing.AllocsPerRun(1000, sendAcked); allocs != 0 {
		t.Fatalf("Send plus its ack allocates %.2f times, want 0", allocs)
	}
}
