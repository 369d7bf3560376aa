package transport

import "encoding/binary"

// Coalesced-batch wire format (pktBatch). A batch datagram packs any
// number of data frames to one peer together with a piggybacked
// acknowledgement for the reverse direction, replacing one datagram per
// frame plus standalone ack packets:
//
//	magic(2) | type(1)=pktBatch | flags(1) | [cum(8)] | [bitmap(8)] | frames…
//
// flags bit0 (batchFlagCum) marks an 8-byte big-endian cumulative
// acknowledgement; bit1 (batchFlagSel) the 8-byte selective bitmap a
// standalone ack carries (bit i: seq cum+2+i is in the sender's reorder
// buffer), present while that buffer holds anything. Each frame then
// follows as
//
//	seq uvarint | len uvarint | payload
//
// until the end of the datagram (no frame count: the datagram boundary
// is the terminator, so a truncated tail drops only the frames it
// corrupted). Sequence numbers are per-peer and identical to the ones a
// standalone pktData frame would carry, so retransmissions — which are
// always standalone pktData frames — interleave freely with coalesced
// first transmissions. Reliable.Send says when a frame is staged for a
// batch and what releases it.
const (
	batchFlagCum = 1 << 0
	batchFlagSel = 1 << 1
)

// batchHdrMax is the largest possible batch header: magic+type+flags
// plus both ack words.
const batchHdrMax = 4 + 8 + 8

// datagramBudget bounds the sub-frame bytes of a batch: with the batch
// header and the 28 bytes of IP and UDP the datagram stays under every
// real path's MTU (1280, IPv6's minimum), so coalescing never causes IP
// fragmentation. A frame is staged only while a second of its size would
// still fit; one too large for a batch of its own travels as pktData.
const datagramBudget = 1200

// batchFrameLen returns the encoded size of one batch sub-frame.
func batchFrameLen(seq uint64, payload []byte) int {
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

// appendBatchHeader appends the batch datagram header. cum is always
// carried (every coalesced datagram refreshes the reverse direction's
// cumulative ack for free); the selective bitmap sel only when hasSel.
func appendBatchHeader(dst []byte, cum uint64, sel uint64, hasSel bool) []byte {
	flags := byte(batchFlagCum)
	if hasSel {
		flags |= batchFlagSel
	}
	dst = append(dst, magic[0], magic[1], pktBatch, flags)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], cum)
	dst = append(dst, b[:]...)
	if hasSel {
		binary.BigEndian.PutUint64(b[:], sel)
		dst = append(dst, b[:]...)
	}
	return dst
}

// appendBatchFrame appends one staged sub-frame.
func appendBatchFrame(dst []byte, seq uint64, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// parseBatchHeader decodes the header of a batch datagram body (the
// bytes after magic+type). It returns the piggybacked acks and the
// offset of the first frame, or ok=false for a malformed header.
func parseBatchHeader(body []byte) (cum uint64, hasCum bool, sel uint64, hasSel bool, off int, ok bool) {
	if len(body) < 1 {
		return 0, false, 0, false, 0, false
	}
	flags := body[0]
	off = 1
	if flags&batchFlagCum != 0 {
		if len(body) < off+8 {
			return 0, false, 0, false, 0, false
		}
		cum, hasCum = binary.BigEndian.Uint64(body[off:]), true
		off += 8
	}
	if flags&batchFlagSel != 0 {
		if len(body) < off+8 {
			return 0, false, 0, false, 0, false
		}
		sel, hasSel = binary.BigEndian.Uint64(body[off:]), true
		off += 8
	}
	return cum, hasCum, sel, hasSel, off, true
}

// nextBatchFrame decodes the sub-frame at body[off:]. It returns the
// frame and the offset of the next one, or ok=false at end of datagram
// or on a corrupt tail (remaining bytes are dropped, like any other
// garbage datagram).
func nextBatchFrame(body []byte, off int) (seq uint64, payload []byte, next int, ok bool) {
	if off >= len(body) {
		return 0, nil, 0, false
	}
	seq, n := binary.Uvarint(body[off:])
	if n <= 0 {
		return 0, nil, 0, false
	}
	off += n
	l, n2 := binary.Uvarint(body[off:])
	if n2 <= 0 {
		return 0, nil, 0, false
	}
	off += n2
	if l > uint64(len(body)-off) {
		return 0, nil, 0, false
	}
	return seq, body[off : off+int(l)], off + int(l), true
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
