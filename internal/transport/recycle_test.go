package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/netsim"
)

// An acknowledged frame's outPkt and buffers go back to its peer's free
// list for the next send. These tests check the frames that must not go
// back — staged ones a confused ack has covered — and that a long stream
// through a small window, every buffer reused many times over, delivers
// every payload intact.

// freeSeqs returns the seqs of the frames on r's free list for to.
func freeSeqs(r *endpoint, to netsim.Addr) []uint64 {
	p := r.peer(to)
	p.mu.Lock()
	defer p.mu.Unlock()
	var seqs []uint64
	for _, pkt := range p.ch.free {
		seqs = append(seqs, pkt.seq)
	}
	return seqs
}

// (a) An ack from a confused peer, clamped to the frames that have left,
// covers none still waiting in the stage. They are not recycled: they
// leave intact and are delivered exactly once, in order, with the frames
// after them built in the buffers that were.
func TestRecycleStagedFramesSurviveClampedAck(t *testing.T) {
	const oneWay, total = 50 * time.Millisecond, 200
	d := newDuo(coalesceCfg, nil)
	d.sendSeqs(t, 0, 1, ackEvery+4) // the last four wait for the first eight's ack
	staged := len(d.ch[0].staged)
	d.hand(0, appendHeader(nil, true, 1<<40, 0, false))
	for _, pkt := range d.ch[0].free {
		if pkt.seq > ackEvery+4-uint64(staged) {
			t.Fatalf("staged frame %d went to the free list (%d staged)", pkt.seq, staged)
		}
	}
	if staged != 4 {
		t.Fatalf("%d frames staged, want 4", staged)
	}
	for seq := uint64(ackEvery + 5); seq <= total; seq++ {
		d.flow(t, oneWay, func() bool { return len(d.ch[0].unacked) < d.ch[0].cfg.Window })
		if err := d.send(0, nil, binary.BigEndian.AppendUint64(nil, seq), false); err != nil {
			t.Fatal(err)
		}
	}
	d.settle(t, oneWay, total)
}

// (b) Through a window of 8, 10 000 messages of assorted sizes, some
// larger than a datagram, cross a line that drops and swaps first
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
	acks := 0
	d := newDuo(Config{RTO: 20 * time.Millisecond, Window: 8}, func(d dgramInfo) verdict {
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
	payload := make([]byte, 1500)
	for seq := uint64(1); seq <= total; seq++ {
		d.flow(t, 0, func() bool { return len(d.ch[0].unacked) < d.ch[0].cfg.Window })
		if err := d.send(0, nil, fill(payload, seq), false); err != nil {
			t.Fatal(err)
		}
	}
	d.settle(t, 0, total)
	for k, f := range d.rx[1] {
		if want := fill(payload, uint64(k+1)); !bytes.Equal(f.payload, want) {
			t.Fatalf("payload %d arrived as %d bytes % x..., want %d bytes % x...", k+1, len(f.payload), f.payload[:min(len(f.payload), 12)], len(want), want[:12])
		}
	}
	if st := d.stats[0].snapshot(); st.Retransmits == 0 || st.Failures != 0 {
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
