package transport

import "encoding/binary"

// Datagram wire format. Every datagram the reliable layer writes — a
// lone frame, a batch of staged frames, a retransmission, a bare ack —
// has one layout:
//
//	magic(2) | flags(1) | [cum(8)] | [bitmap(8)] | frames…
//
// flags bit0 (flagCum) marks an 8-byte big-endian cumulative
// acknowledgement for the reverse direction, present when the peer is
// owed one; bit1 (flagSel) the 8-byte selective bitmap that goes with it
// (bit i: seq cum+2+i is in the sender's reorder buffer), present while
// that buffer holds anything. Each frame then follows as
//
//	seq uvarint | len uvarint | payload
//
// until the end of the datagram (no frame count: the datagram boundary
// is the terminator, so a truncated tail drops only the frames it
// corrupted). A datagram with no frames is a bare ack. Reliable.Send says
// when a frame is staged for a batch and what releases it.
const (
	flagCum = 1 << 0
	flagSel = 1 << 1
)

var magic = [2]byte{'w', 'w'}

// dgramHdrMax is the largest datagram header: magic, flags and both ack
// words.
const dgramHdrMax = 3 + 8 + 8

// datagramBudget bounds the frame bytes of a datagram: with the header
// and the 28 bytes of IP and UDP it stays under every real path's MTU
// (1280, IPv6's minimum), so coalescing never causes IP fragmentation. A
// frame is staged only while a second of its size would still fit; one
// larger than the budget travels alone.
const datagramBudget = 1200

// frameLen returns the encoded size of one frame.
func frameLen(seq uint64, payload []byte) int {
	return uvarintLen(seq) + uvarintLen(uint64(len(payload))) + len(payload)
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
		dst = binary.BigEndian.AppendUint64(dst, cum)
		if hasSel {
			dst = binary.BigEndian.AppendUint64(dst, sel)
		}
	}
	return dst
}

// appendFrame appends one frame.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// parseHeader decodes a datagram's header. It returns the acks it
// carries and the offset of the first frame, or ok=false for a datagram
// without the magic or with a truncated header.
func parseHeader(dgram []byte) (cum uint64, hasCum bool, sel uint64, hasSel bool, off int, ok bool) {
	if len(dgram) < 3 || dgram[0] != magic[0] || dgram[1] != magic[1] {
		return 0, false, 0, false, 0, false
	}
	flags := dgram[2]
	off = 3
	if flags&flagCum != 0 {
		if len(dgram) < off+8 {
			return 0, false, 0, false, 0, false
		}
		cum, hasCum = binary.BigEndian.Uint64(dgram[off:]), true
		off += 8
	}
	if flags&flagSel != 0 {
		if len(dgram) < off+8 {
			return 0, false, 0, false, 0, false
		}
		sel, hasSel = binary.BigEndian.Uint64(dgram[off:]), true
		off += 8
	}
	return cum, hasCum, sel, hasSel, off, true
}

// nextFrame decodes the frame at dgram[off:]. It returns the frame and
// the offset of the next one, or ok=false at end of datagram or on a
// corrupt tail (remaining bytes are dropped, like any other garbage
// datagram).
func nextFrame(dgram []byte, off int) (seq uint64, payload []byte, next int, ok bool) {
	if off >= len(dgram) {
		return 0, nil, 0, false
	}
	seq, n := binary.Uvarint(dgram[off:])
	if n <= 0 {
		return 0, nil, 0, false
	}
	off += n
	l, n2 := binary.Uvarint(dgram[off:])
	if n2 <= 0 {
		return 0, nil, 0, false
	}
	off += n2
	if l > uint64(len(dgram)-off) {
		return 0, nil, 0, false
	}
	return seq, dgram[off : off+int(l)], off + int(l), true
}

// IOStats counts a PacketConn's syscall-level activity. A transport
// that batches datagrams through sendmmsg/recvmmsg-style loops makes
// fewer Read/Write calls than it moves datagrams; the ratio is the
// syscall batching factor.
type IOStats struct {
	// ReadCalls and WriteCalls count I/O syscalls (each may carry a
	// whole batch of datagrams).
	ReadCalls  uint64
	WriteCalls uint64
	// DatagramsIn and DatagramsOut count individual datagrams moved.
	DatagramsIn  uint64
	DatagramsOut uint64
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
