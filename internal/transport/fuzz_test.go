package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/netsim"
)

// ackedBy is the fuzz oracle: the test's own reading of the wire format,
// saying which of the in-flight seqs 1..inflight a datagram acknowledges.
func ackedBy(dgram []byte, inflight uint64) map[uint64]bool {
	acked := make(map[uint64]bool)
	if len(dgram) < 3 || dgram[0] != 'w' || dgram[1] != 'w' {
		return acked
	}
	var cum, sel uint64
	switch dgram[2] {
	case pktAck:
		if len(dgram) < 11 {
			return acked
		}
		cum = binary.BigEndian.Uint64(dgram[3:])
		if len(dgram) == 19 {
			sel = binary.BigEndian.Uint64(dgram[11:])
		}
	case pktBatch:
		if len(dgram) < 4 {
			return acked
		}
		flags, words := dgram[3], dgram[4:]
		need := 0
		for _, f := range []byte{1, 2} {
			if flags&f != 0 {
				need += 8
			}
		}
		if len(words) < need || flags&1 == 0 {
			return acked // truncated header, or no cumulative ack to anchor a bitmap
		}
		cum = binary.BigEndian.Uint64(words)
		if flags&2 != 0 {
			sel = binary.BigEndian.Uint64(words[8:])
		}
	default:
		return acked
	}
	cum = min(cum, inflight)
	for q := uint64(1); q <= cum; q++ {
		acked[q] = true
	}
	for i := uint64(0); i < 64; i++ {
		if q := cum + 2 + i; sel>>i&1 != 0 && q <= inflight {
			acked[q] = true
		}
	}
	return acked
}

// FuzzDatagram hands arbitrary bytes to a Reliable with frames in flight
// as one arriving datagram — decodeFrame, parseBatchHeader,
// nextBatchFrame and the ack bitmap all sit behind it. The layer must not
// panic, must deliver nothing the datagram does not contain, and must
// release exactly the in-flight frames a reading of the wire format says
// the datagram acknowledges.
func FuzzDatagram(f *testing.F) {
	bitmap := binary.BigEndian.AppendUint64(nil, 0b1011)
	f.Add(encodeFrame(pktData, 1, []byte("in order")))
	f.Add(encodeFrame(pktData, 3, []byte("early")))
	f.Add(encodeFrame(pktAck, 2, nil))
	f.Add(encodeFrame(pktAck, 1, bitmap))
	batch := appendBatchHeader(nil, 2, 0b11, true)
	batch = appendBatchFrame(batch, 1, []byte("one"))
	batch = appendBatchFrame(batch, 2, []byte("two"))
	f.Add(batch)
	f.Add(appendBatchFrame(appendBatchHeader(nil, 9, 0, false), 4, nil))

	const inflight = 5
	peer := netsim.Addr{Host: "peer", Port: 1}
	f.Fuzz(func(t *testing.T, dgram []byte) {
		if len(dgram) > 2048 {
			t.Skip() // more in-order frames than the delivery queue holds would block the handler
		}
		r := NewReliable(newNullConn(), Config{RTO: time.Hour})
		defer r.Close()
		for seq := uint64(1); seq <= inflight; seq++ {
			if err := r.Send(peer, []byte{byte(seq)}); err != nil {
				t.Fatal(err)
			}
		}
		r.handleDatagram(peer, bytes.Clone(dgram)) // the layer owns what it is handed

		for delivered := true; delivered; {
			select {
			case m := <-r.incoming:
				if m.from != peer || !bytes.Contains(dgram, m.payload) {
					t.Fatalf("delivered %q from %v: not in the datagram", m.payload, m.from)
				}
			default:
				delivered = false
			}
		}
		want := ackedBy(dgram, inflight)
		p := r.peer(peer)
		p.mu.Lock()
		defer p.mu.Unlock()
		for seq := uint64(1); seq <= inflight; seq++ {
			if _, unacked := p.unacked[seq]; unacked == want[seq] {
				t.Fatalf("seq %d: released = %v, the datagram acknowledges it = %v", seq, !unacked, want[seq])
			}
		}
		if p.ackedTo > inflight || len(p.unacked) > inflight {
			t.Fatalf("ackedTo = %d with %d unacked after %d sends", p.ackedTo, len(p.unacked), inflight)
		}
	})
}
