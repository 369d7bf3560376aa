package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Every benchmark payload ends in idMagic followed by an 8-byte
// big-endian message id. The wrappers find a message inside a datagram
// or an envelope body by that trailer alone, without knowing the
// transport's private frame format — so they keep working when
// coalescing packs several frames into one datagram.
var idMagic = [8]byte{0xB5, 'w', 'w', 'b', 'e', 'n', 'c', 0x5B}

const trailerLen = 16

func putTrailer(payload []byte, id uint64) {
	t := payload[len(payload)-trailerLen:]
	copy(t, idMagic[:])
	binary.BigEndian.PutUint64(t[8:], id)
}

func trailerID(b []byte) (uint64, bool) {
	if len(b) < trailerLen || !bytes.Equal(b[len(b)-trailerLen:len(b)-8], idMagic[:]) {
		return 0, false
	}
	return binary.BigEndian.Uint64(b[len(b)-8:]), true
}

// hop holds the stamps of one sampled message on its way to one
// receiving dapplet, in ns since the tracer's epoch (0 = not seen). The
// first writer wins, so a retransmission or a duplicate never moves a
// stamp.
//
//	start    s0  harness, before Outbox.Send / Caller.Call (or handler entry for a reply)
//	obsSend  s1  Dapplet.OnSend at the sending dapplet
//	wEnter   s2  PacketConn.WriteTo entered
//	wExit    s3  PacketConn.WriteTo returned
//	sendRet  s4  harness, Outbox.Send returned
//	rRead    r0  PacketConn.ReadFrom returned at the receiver
//	obsRecv  r1  Dapplet.OnRecv at the receiver (the carrier envelope)
//	obsLocal     relay only: OnRecv of the delivery the relay synthesizes
//	end      r2  harness, ReceiveEnvelope returned / handler entered / Call returned
type hop struct {
	start, obsSend, wEnter, wExit, sendRet atomic.Int64
	rRead, obsRecv, obsLocal, end          atomic.Int64
}

func setOnce(s *atomic.Int64, v int64) { s.CompareAndSwap(0, v) }

// tracer records hops for one message id in every `every`, starting at
// the id arm() is given, until its table is full.
type tracer struct {
	base    time.Time
	every   uint64
	members int
	hops    []hop
	first   atomic.Uint64 // first traced id; MaxUint64 while disarmed
	addrIdx map[netsim.Addr]int

	scratch sync.Pool

	probeOnce sync.Once
	probe     []byte // first benchmark envelope seen by OnSend, marshalled
}

// maxHops bounds the stamp table (72 bytes a hop, 9 MiB): 64k sampled
// messages on a pair, 2k sampled broadcasts on the 65-dapplet group.
const maxHops = 1 << 17

// newTracer maps the stamp table outside the Go heap. On the heap it
// would be several times the live data of a two-dapplet world, the
// collector would run that much less often, and the traced rounds would
// come out faster than the untraced rounds they are compared with.
// release unmaps it; no hop may be touched afterwards.
func newTracer(members int, every uint64) (t *tracer, release func(), err error) {
	n := maxHops / members * members
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(hop{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map the stamp table: %w", err)
	}
	t = &tracer{
		base:    time.Now(),
		every:   every,
		members: members,
		hops:    unsafe.Slice((*hop)(unsafe.Pointer(&mem[0])), n),
		addrIdx: make(map[netsim.Addr]int),
	}
	t.first.Store(^uint64(0))
	t.scratch.New = func() any { b := make([]byte, 0, 2048); return &b }
	return t, func() { _ = syscall.Munmap(mem) }, nil
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) + 1 }

// arm starts sampling at firstID; ids before it (the warm-up) are
// ignored.
func (t *tracer) arm(firstID uint64) { t.first.Store(firstID) }

// slot returns the table row of message id, or -1 when the id is not
// sampled.
func (t *tracer) slot(id uint64) int {
	first := t.first.Load()
	if id < first || (id-first)%t.every != 0 {
		return -1
	}
	i := int((id-first)/t.every) * t.members
	if i >= len(t.hops) {
		return -1
	}
	return i
}

// hop returns the record of message id on its way to member dst, or nil
// when the id is not sampled.
func (t *tracer) hop(id uint64, dst int) *hop {
	if i := t.slot(id); i >= 0 {
		return &t.hops[i+dst]
	}
	return nil
}

// sampled lists the ids that have records, given the next unused id.
func (t *tracer) sampled(nextID uint64) []uint64 {
	first := t.first.Load()
	var ids []uint64
	for id := first; id < nextID && len(ids) < len(t.hops)/t.members; id += t.every {
		ids = append(ids, id)
	}
	return ids
}

// Harness-side stamps.
func (t *tracer) start(id uint64, dst int) {
	if h := t.hop(id, dst); h != nil {
		setOnce(&h.start, t.now())
	}
}

func (t *tracer) sendRet(id uint64, dst int) {
	if h := t.hop(id, dst); h != nil {
		setOnce(&h.sendRet, t.now())
	}
}

func (t *tracer) end(id uint64, dst int) {
	if h := t.hop(id, dst); h != nil {
		setOnce(&h.end, t.now())
	}
}

// bodyID extracts the benchmark id from an envelope body. Every body on
// the measured path encodes its payload last, so the id is the trailer
// of the body's binary form.
func (t *tracer) bodyID(m wire.Msg) (uint64, bool) {
	switch b := m.(type) {
	case *wire.Bytes:
		return trailerID(b.B)
	case *wire.RelayFrame:
		return trailerID(b.Body)
	case wire.BinaryMessage:
		bufp := t.scratch.Get().(*[]byte)
		buf, err := b.AppendBinary((*bufp)[:0])
		id, ok := trailerID(buf)
		*bufp = buf[:0]
		t.scratch.Put(bufp)
		return id, ok && err == nil
	}
	return 0, false
}

// observe installs the OnSend/OnRecv observers of member self.
func (t *tracer) observe(self int, d *core.Dapplet) {
	d.OnSend(func(env *wire.Envelope) {
		id, ok := t.bodyID(env.Body)
		if !ok {
			return
		}
		t.captureProbe(env)
		if i := t.slot(id); i >= 0 {
			if dst, ok := t.addrIdx[env.To.Dapplet]; ok {
				setOnce(&t.hops[i+dst].obsSend, t.now())
			}
		}
	})
	d.OnRecv(func(env *wire.Envelope) {
		id, ok := t.bodyID(env.Body)
		if !ok {
			return
		}
		if h := t.hop(id, self); h != nil {
			now := t.now()
			if !h.obsRecv.CompareAndSwap(0, now) {
				setOnce(&h.obsLocal, now)
			}
		}
	})
}

// captureProbe keeps the first benchmark envelope for the codec probe.
func (t *tracer) captureProbe(env *wire.Envelope) {
	t.probeOnce.Do(func() { t.probe, _ = wire.MarshalEnvelope(env) })
}

// tracedConn stamps WriteTo and ReadFrom for the sampled messages a
// datagram carries.
type tracedConn struct {
	transport.PacketConn
	t    *tracer
	self int
}

// wrap registers pc's address as member self and returns the stamping
// wrapper. All members are wrapped before traffic starts, so addrIdx is
// read-only by then.
func (t *tracer) wrap(pc transport.PacketConn, self int) transport.PacketConn {
	t.addrIdx[pc.LocalAddr()] = self
	return &tracedConn{PacketConn: pc, t: t, self: self}
}

// IOStats keeps Reliable.Stats().IO working through the wrapper.
func (c *tracedConn) IOStats() transport.IOStats {
	s, _ := transport.IOStatsOf(c.PacketConn)
	return s
}

// maxPerDatagram bounds how many sampled messages one datagram is
// searched for; with one id in `every` sampled, more cannot share a
// datagram of any plausible size.
const maxPerDatagram = 8

// scan finds the table rows of the sampled messages inside datagram p.
func (t *tracer) scan(p []byte) (rows [maxPerDatagram]int, n int) {
	for off := 0; n < maxPerDatagram; {
		i := bytes.Index(p[off:], idMagic[:])
		if i < 0 || off+i+trailerLen > len(p) {
			break
		}
		off += i + 8
		if row := t.slot(binary.BigEndian.Uint64(p[off:])); row >= 0 {
			rows[n] = row
			n++
		}
	}
	return rows, n
}

func (c *tracedConn) WriteTo(to netsim.Addr, p []byte) error {
	rows, n := c.t.scan(p)
	dst, ok := 0, false
	if n > 0 {
		dst, ok = c.t.addrIdx[to]
	}
	if !ok {
		return c.PacketConn.WriteTo(to, p)
	}
	enter := c.t.now()
	err := c.PacketConn.WriteTo(to, p)
	exit := c.t.now()
	for _, row := range rows[:n] {
		setOnce(&c.t.hops[row+dst].wEnter, enter)
		setOnce(&c.t.hops[row+dst].wExit, exit)
	}
	return err
}

func (c *tracedConn) ReadFrom() ([]byte, netsim.Addr, error) {
	p, from, err := c.PacketConn.ReadFrom()
	if err == nil {
		if rows, n := c.t.scan(p); n > 0 {
			now := c.t.now()
			for _, row := range rows[:n] {
				setOnce(&c.t.hops[row+c.self].rRead, now)
			}
		}
	}
	return p, from, err
}

// span is one interval of the trace file: what ran, when (ns since the
// round's epoch), under which parent span, for which message.
type span struct {
	ID     int    `json:"span"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Msg    uint64 `json:"msg"`
	Dst    int    `json:"dst"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxFileSpans bounds the trace file: the first so many spans are
// written, the segment table uses every sampled message.
const maxFileSpans = 20000

// segments is the per-layer cost table of one traced round.
type segments struct {
	by       map[string]*samples // segment name -> durations
	depth    [4]samples          // relay only: listener latency by tree depth
	messages int                 // sampled messages analysed
	untiled  int                 // delivery paths whose stamps do not tile start→end
	spans    []span
	firstBad string
}

func newSegments() *segments { return &segments{by: make(map[string]*samples)} }

func (s *segments) add(name string, ns int64) {
	sm := s.by[name]
	if sm == nil {
		sm = &samples{}
		s.by[name] = sm
	}
	sm.add(ns)
}

// segRow is one line of the printed segment table.
type segRow struct {
	name      string
	mean, p50 float64
	n         int
}

// rows lists the segments in the order the per-layer table names them.
func (s *segments) rows() []segRow {
	var rows []segRow
	for _, def := range perLayer {
		if sm := s.by[def.Name]; sm != nil {
			rows = append(rows, segRow{def.Name, sm.mean(), sm.p50(), sm.n()})
		}
	}
	return rows
}

func (s *segments) bad(format string, args ...any) {
	s.untiled++
	if s.firstBad == "" {
		s.firstBad = fmt.Sprintf(format, args...)
	}
}

// pathPoint is one boundary on a message's delivery path; consecutive
// points bound one named segment.
type pathPoint struct {
	seg string // name of the segment that ends here
	at  int64
}

// tile checks that the points are all present and in order — so the
// segments between them cover first→last with no gap and no overlap —
// then records each segment and, while the file budget lasts, its span.
func (s *segments) tile(id uint64, dst int, root string, pts []pathPoint) bool {
	return s.tileFrom(id, dst, root, pts, 0)
}

// tileFrom is tile for a path that shares its first segments with other
// paths: all of it is checked and written, only the segments after
// point `from` are recorded.
func (s *segments) tileFrom(id uint64, dst int, root string, pts []pathPoint, from int) bool {
	for i, p := range pts {
		if p.at == 0 {
			s.bad("msg %d to member %d: stamp ending %q missing", id, dst, p.seg)
			return false
		}
		if i > 0 && p.at < pts[i-1].at {
			s.bad("msg %d to member %d: segment %q ends %dns before it starts", id, dst, p.seg, pts[i-1].at-p.at)
			return false
		}
	}
	parent := 0
	if len(s.spans)+len(pts) <= maxFileSpans {
		parent = s.span(0, root, id, dst, pts[0].at, pts[len(pts)-1].at)
	}
	for i := 1; i < len(pts); i++ {
		if i > from {
			s.add(pts[i].seg, pts[i].at-pts[i-1].at)
		}
		if parent != 0 {
			s.span(parent, pts[i].seg, id, dst, pts[i-1].at, pts[i].at)
		}
	}
	return true
}

func (s *segments) span(parent int, name string, id uint64, dst int, start, end int64) int {
	sp := span{ID: len(s.spans) + 1, Parent: parent, Name: name, Msg: id, Dst: dst, Start: start, End: end}
	s.spans = append(s.spans, sp)
	return sp.ID
}

// wirePoints are the boundaries of one hop from the sender's OnSend to
// the receiver's OnRecv. The write and the receive queue overlap when
// the receiver's ReadFrom returns before the sender's WriteTo does (the
// datagram is handed over inside WriteTo); the delivery path then leaves
// the write at the moment of the read, so the boundary is the earlier
// of the two.
func wirePoints(h *hop, writeSeg, queueSeg string) []pathPoint {
	obsSend, wEnter, wExit, sendRet, rRead := h.obsSend.Load(), h.wEnter.Load(), h.wExit.Load(), h.sendRet.Load(), h.rRead.Load()
	if rRead != 0 && rRead < wExit {
		wExit = rRead
	}
	pts := []pathPoint{{"", obsSend}}
	if sendRet != 0 && sendRet < wEnter {
		// Staged: Send returned before the frame was written.
		pts = append(pts, pathPoint{"transport.send_ns", sendRet}, pathPoint{"transport.stage_wait_ns", wEnter})
	} else {
		pts = append(pts, pathPoint{"transport.send_ns", wEnter})
	}
	return append(pts,
		pathPoint{writeSeg, wExit},
		pathPoint{queueSeg, rRead},
		pathPoint{"transport.rx_ns", h.obsRecv.Load()})
}

// pairPath is the whole path of a message between two dapplets: the
// harness's start stamp, the hop, the harness's end stamp.
func pairPath(h *hop, writeSeg, queueSeg string) []pathPoint {
	pts := append([]pathPoint{{"", h.start.Load()}}, wirePoints(h, writeSeg, queueSeg)...)
	pts[1].seg = "wire.encode_ns"
	return append(pts, pathPoint{"core.deliver_ns", h.end.Load()})
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Sampled  int    `json:"sampled_messages"`
	Untiled  int    `json:"untiled_paths"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, s *segments) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Sampled: s.messages, Untiled: s.untiled, Spans: s.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// probeCodec times wire.UnmarshalEnvelope on the envelope the tracer
// captured and reports the framing overhead around its payload.
func probeCodec(env []byte, payload int, iters int) (decodeNs, decodeAllocs, overhead float64, err error) {
	if len(env) == 0 {
		return 0, 0, 0, fmt.Errorf("no envelope captured for the codec probe")
	}
	if _, err := wire.UnmarshalEnvelope(env); err != nil {
		return 0, 0, 0, fmt.Errorf("codec probe: %w", err)
	}
	before := readMem()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		e, err := wire.UnmarshalEnvelope(env)
		if err != nil || e.Body == nil {
			return 0, 0, 0, fmt.Errorf("codec probe: iteration %d: %v", i, err)
		}
	}
	el := time.Since(t0)
	after := readMem()
	return float64(el.Nanoseconds()) / float64(iters),
		float64(after.Mallocs-before.Mallocs) / float64(iters),
		float64(len(env) - payload), nil
}
