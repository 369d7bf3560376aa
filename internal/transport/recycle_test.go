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
// back — staged ones an ack has covered — and that a long stream
// through a small window, every buffer reused many times over, delivers
// every payload intact.

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

// (b) Through a window of 8, 10 000 messages of assorted sizes, some
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
