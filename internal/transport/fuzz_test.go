package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/netsim"
)

// readHeader is the fuzz oracle: the test's own reading of the wire
// format. It says which of the in-flight seqs 1..inflight a datagram
// acknowledges and the floor it carries (0 for none), or ok=false for a
// datagram the layer must ignore whole.
func readHeader(dgram []byte, inflight uint64) (acked map[uint64]bool, floor uint64, ok bool) {
	acked = make(map[uint64]bool)
	if len(dgram) < 3 || dgram[0] != 'w' || dgram[1] != 'x' {
		return acked, 0, false // not this layout
	}
	flags, off := dgram[2], 3
	var cum, sel uint64
	if flags&1 != 0 {
		v, n := binary.Uvarint(dgram[off:])
		if n <= 0 {
			return acked, 0, false // truncated header
		}
		cum, off = v, off+n
	}
	if flags&2 != 0 {
		if len(dgram) < off+8 {
			return acked, 0, false // truncated header
		}
		sel, off = binary.BigEndian.Uint64(dgram[off:]), off+8
	}
	if flags&4 != 0 {
		v, n := binary.Uvarint(dgram[off:])
		if n <= 0 {
			return acked, 0, false // truncated floor
		}
		l, m := binary.Uvarint(dgram[off+n:])
		if m <= 0 || l > uint64(len(dgram)-off-n-m) {
			return acked, 0, false // truncated floor header
		}
		floor = v
	}
	if flags&1 == 0 {
		return acked, floor, true // no cumulative ack to anchor a bitmap
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
	return acked, floor, true
}

// FuzzDatagram hands arbitrary bytes to a Reliable with frames in flight
// as one arriving datagram — parseHeader, nextFrame, the ack bitmap and
// the floor all sit behind it. The layer must not panic, must deliver
// nothing the datagram does not contain — a header included: the peer
// has none on record, so a frame that leaves its header out before any
// frame or floor carried one is delivered with none — must release
// exactly the in-flight frames a reading of the wire format says the
// datagram acknowledges, and must skip exactly the seqs below the floor
// it reads, since nothing from the peer has arrived before.
func FuzzDatagram(f *testing.F) {
	lone := func(seq uint64, hdr []byte, payload string) []byte {
		return appendFrame(appendHeader(nil, false, 0, 0, false), seq, hdr, hdr != nil, []byte(payload))
	}
	f.Add(lone(1, nil, "in order"))                 // a lone frame
	f.Add(appendHeader(nil, true, 2, 0, false))     // a bare ack
	f.Add(appendHeader(nil, true, 1, 0b1011, true)) // a bare ack with its bitmap
	batch := appendHeader(nil, true, 2, 0b11, true) // frames behind an ack
	batch = appendFrame(batch, 1, nil, false, []byte("one"))
	batch = appendFrame(batch, 2, nil, false, []byte("two"))
	f.Add(batch)
	f.Add(appendHeader(nil, true, 1<<20, 0b1, true)[:8]) // a truncated header
	f.Add(lone(3, nil, "early"))                         // a frame past a gap
	f.Add(lone(1, []byte("hdr"), "inline"))              // a frame carrying its header
	elided := lone(1, []byte("hdr"), "inline")           // a frame leaving out the header of the one before
	f.Add(appendFrame(elided, 2, nil, false, []byte("elided")))
	f.Add(lone(1, nil, "no header on record")) // a frame leaving out a header its peer never sent
	floor := appendFloor(appendHeader(nil, true, 2, 0, false), 3, []byte("hdr"))
	f.Add(appendFrame(appendFrame(floor, 2, nil, false, []byte("skipped")), 3, nil, false, []byte("past the floor")))

	const inflight = 5
	peer := netsim.Addr{Host: "peer", Port: 1}
	f.Fuzz(func(t *testing.T, dgram []byte) {
		r := newEndpoint(newNullConn(), Config{RTO: time.Hour})
		defer r.Close()
		for seq := uint64(1); seq <= inflight; seq++ {
			if err := r.Send(peer, nil, []byte{byte(seq)}); err != nil {
				t.Fatal(err)
			}
		}
		r.handleDatagram(peer, bytes.Clone(dgram)) // the layer owns what it is handed

		r.mu.Lock()
		delivered := r.rx // delivered on this goroutine, inside handleDatagram
		r.mu.Unlock()
		for _, m := range delivered {
			if m.from != peer || !bytes.Contains(dgram, m.payload) || m.hdr != nil && !bytes.Contains(dgram, m.hdr) {
				t.Fatalf("delivered %q, %q from %v: not in the datagram", m.hdr, m.payload, m.from)
			}
		}
		want, floor, ok := readHeader(dgram, inflight)
		if skipped := r.Stats().Skipped; ok && skipped != max(floor, 1)-1 || !ok && skipped != 0 {
			t.Fatalf("Skipped = %d; the datagram reads as valid %v with floor %d", skipped, ok, floor)
		}
		p := r.peer(peer)
		p.mu.Lock()
		defer p.mu.Unlock()
		for seq := uint64(1); seq <= inflight; seq++ {
			if _, unacked := p.ch.unacked[seq]; unacked == want[seq] {
				t.Fatalf("seq %d: released = %v, the datagram acknowledges it = %v", seq, !unacked, want[seq])
			}
		}
		if p.ch.ackedTo > inflight || len(p.ch.unacked) > inflight {
			t.Fatalf("ackedTo = %d with %d unacked after %d sends", p.ch.ackedTo, len(p.ch.unacked), inflight)
		}
	})
}
