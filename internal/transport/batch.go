package transport

import "encoding/binary"

// Datagram wire format. Every datagram the reliable layer writes — a
// lone frame, a batch of staged frames, a retransmission, a bare ack —
// has one layout:
//
//	magic(2) | flags(1) | [cum uvarint] | [bitmap(8)] | [floor uvarint | hdrLen uvarint | hdr] | frames…
//
// flags bit0 (flagCum) marks a cumulative acknowledgement for the reverse
// direction, present when the peer is owed one; bit1 (flagSel) the
// 8-byte big-endian selective bitmap that goes with it (bit i: seq
// cum+2+i is in the sender's reorder buffer), present while that buffer
// holds anything; bit2 (flagFloor) the floor, present while frames the
// sender gave up on are unacknowledged (channel.floor). Each frame then
// follows as
//
//	seq uvarint | len<<1|inline uvarint | [hdrLen uvarint | hdr] | payload
//
// until the end of the datagram (no frame count: the datagram boundary
// is the terminator, so a truncated tail drops only the frames it
// corrupted). len is the payload's length. hdr is the frame's channel
// header, the part of a message every frame on one channel repeats; it
// is inline only when it differs from the header of the frame sent to
// the same peer just before, and a frame without it (inline clear) has
// the header of the last in-order frame from that peer that carried one.
// A datagram with no frames is a bare ack. Reliable.Send says when a
// frame is staged for a batch and what releases it.
const (
	flagCum   = 1 << 0
	flagSel   = 1 << 1
	flagFloor = 1 << 2
)

// magic opens every datagram. The layout before header elision and the
// uvarint ack opened with "ww"; its datagrams are refused.
var magic = [2]byte{'w', 'x'}

// dgramHdrMax is the largest datagram header without a floor: magic,
// flags and both ack words.
const dgramHdrMax = 3 + binary.MaxVarintLen64 + 8

// datagramBudget bounds the frame bytes of a datagram: with the header
// and the 28 bytes of IP and UDP it stays under every real path's MTU
// (1280, IPv6's minimum), so coalescing never causes IP fragmentation. A
// frame is staged only while a second of its size would still fit; one
// larger than the budget travels alone.
const datagramBudget = 1200

// frame is one decoded frame. hdr is the header it carries when inline
// is set; once the frame is in order it is the header it resolves to.
type frame struct {
	seq     uint64
	inline  bool
	hdr     []byte
	payload []byte
}

// frameLen returns the encoded size of one frame, counting hdr only when
// it is inline.
func frameLen(seq uint64, hdr []byte, inline bool, payload []byte) int {
	n := uvarintLen(seq) + uvarintLen(uint64(len(payload))<<1) + len(payload)
	if inline {
		n += uvarintLen(uint64(len(hdr))) + len(hdr)
	}
	return n
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendHeader appends the datagram header: with the cumulative ack cum
// when hasCum, and the selective bitmap sel as well when hasSel.
func appendHeader(dst []byte, hasCum bool, cum uint64, sel uint64, hasSel bool) []byte {
	var flags byte
	if hasCum {
		flags |= flagCum
		if hasSel {
			flags |= flagSel
		}
	}
	dst = append(dst, magic[0], magic[1], flags)
	if hasCum {
		dst = binary.AppendUvarint(dst, cum)
		if hasSel {
			dst = binary.BigEndian.AppendUint64(dst, sel)
		}
	}
	return dst
}

// appendFrame appends one frame, carrying hdr when inline.
func appendFrame(dst []byte, seq uint64, hdr []byte, inline bool, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, seq)
	if inline {
		dst = binary.AppendUvarint(dst, uint64(len(payload))<<1|1)
		dst = binary.AppendUvarint(dst, uint64(len(hdr)))
		dst = append(dst, hdr...)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(payload))<<1)
	}
	return append(dst, payload...)
}

// appendFloor appends the floor and its header to a datagram whose
// header appendHeader has just written.
func appendFloor(dgram []byte, floor uint64, hdr []byte) []byte {
	dgram[2] |= flagFloor
	dgram = binary.AppendUvarint(dgram, floor)
	dgram = binary.AppendUvarint(dgram, uint64(len(hdr)))
	return append(dgram, hdr...)
}

// header is a decoded datagram header; floor is zero when it has none.
type header struct {
	cum, sel       uint64
	hasCum, hasSel bool
	floor          uint64
	floorHdr       []byte
}

// parseHeader decodes a datagram's header. It returns it and the offset
// of the first frame, or ok=false for a datagram without the magic or
// with a truncated header.
func parseHeader(dgram []byte) (h header, off int, ok bool) {
	if len(dgram) < 3 || dgram[0] != magic[0] || dgram[1] != magic[1] {
		return header{}, 0, false
	}
	flags, off, n := dgram[2], 3, 0
	if flags&flagCum != 0 {
		if h.cum, n = binary.Uvarint(dgram[off:]); n <= 0 {
			return header{}, 0, false
		}
		h.hasCum, off = true, off+n
	}
	if flags&flagSel != 0 {
		if len(dgram) < off+8 {
			return header{}, 0, false
		}
		h.sel, h.hasSel, off = binary.BigEndian.Uint64(dgram[off:]), true, off+8
	}
	if flags&flagFloor != 0 {
		var l uint64
		if h.floor, n = binary.Uvarint(dgram[off:]); n <= 0 {
			return header{}, 0, false
		}
		off += n
		if l, n = binary.Uvarint(dgram[off:]); n <= 0 || l > uint64(len(dgram)-off-n) {
			return header{}, 0, false
		}
		off += n
		h.floorHdr, off = dgram[off:off+int(l)], off+int(l)
	}
	return h, off, true
}

// nextFrame decodes the frame at dgram[off:]. It returns the frame, whose
// slices alias dgram, and the offset of the next one, or ok=false at end
// of datagram or on a corrupt tail (remaining bytes are dropped, like any
// other garbage datagram).
func nextFrame(dgram []byte, off int) (f frame, next int, ok bool) {
	if off >= len(dgram) {
		return frame{}, 0, false
	}
	seq, n := binary.Uvarint(dgram[off:])
	if n <= 0 {
		return frame{}, 0, false
	}
	off += n
	l, n := binary.Uvarint(dgram[off:])
	if n <= 0 {
		return frame{}, 0, false
	}
	off += n
	f = frame{seq: seq, inline: l&1 != 0}
	if f.inline {
		hl, n := binary.Uvarint(dgram[off:])
		if n <= 0 || hl > uint64(len(dgram)-off-n) {
			return frame{}, 0, false
		}
		off += n
		f.hdr = dgram[off : off+int(hl)]
		off += int(hl)
	}
	if l >>= 1; l > uint64(len(dgram)-off) {
		return frame{}, 0, false
	}
	f.payload = dgram[off : off+int(l)]
	return f, off + int(l), true
}

// IOStats counts a PacketConn's syscall-level activity. The UDP conn
// moves one datagram per syscall, so these are its datagram counts too.
type IOStats struct {
	// ReadCalls and WriteCalls count I/O syscalls.
	ReadCalls  uint64
	WriteCalls uint64
}

// ioStatser is implemented by PacketConns that track syscall-level
// counters.
type ioStatser interface {
	IOStats() IOStats
}

// IOStatsOf returns the syscall-level counters of a PacketConn, or
// ok=false when the transport does not track them (the simulated
// transport makes no syscalls).
func IOStatsOf(pc PacketConn) (IOStats, bool) {
	if s, ok := pc.(ioStatser); ok {
		return s.IOStats(), true
	}
	return IOStats{}, false
}
