package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"
)

// The reference model of the reliable channel. FuzzChannel reads its
// input as a script for two endpoints joined by a stepped pipe, in which
// nothing moves unless the script moves it: the ops at the front of the
// input send on either end, hand datagrams over, release parked acks and
// forge an ack, and the bytes at the back are the pipe's verdicts on the
// datagrams in the order they are written. Once the script is spent the
// pipe passes everything, and the model runs the channel until it is
// quiet: every accepted send delivered and acknowledged. Then it checks
// what the channel promises, stated over the datagram log and the
// deliveries the pipe made, never over the layer's own fields:
//
//   - each end delivers the other's accepted sends exactly once, in
//     order, with byte-identical header and payload;
//   - a sender never has more than Window frames transmitted and not yet
//     acknowledged by an ack it has been handed;
//   - every datagram fits the budget, unless it is one frame too large
//     for it;
//   - a frame carries its header exactly when the header differs from
//     that of the frame before it in seq order;
//   - no frame is sent again unless the log condemns its previous copy:
//     three later seqs acknowledged above a never-resent frame, a frame
//     sent after it acknowledged (RACK), or the timer's floor elapsed;
//   - a frame leaves with the ack its peer is owed, so no bare ack goes
//     out where a frame could have carried it;
//   - after Close nothing more is written or delivered, and Send fails;
//   - Send refuses a frame with ErrBacklog only past the backlog bound,
//     and Stats counts each refusal; SendOwed is never refused.
//
// The rules need only the order of events, except the timer's: a resend
// at least timerGap after the previous copy is the timer's to make. The
// layer's timers are the only thing running beside the script, so the
// log orders two writes as the layer made them unless one of them is a
// timer's, built before the other and written after it. The pipe marks
// the timers' writes, and where a rule's verdict hangs on such an order
// the model gives the layer the benefit of the doubt.

// modelCfg keeps the retransmission timer's floor (RTO/2) at 50ms, well
// above what a scripted exchange takes, and never fails a frame.
var modelCfg = Config{RTO: 100 * time.Millisecond, AckDelay: 2 * time.Millisecond, MaxRetries: 1 << 20}

// timerGap is the least time between two copies of a frame that the
// model lets the retransmission timer account for: half its floor, the
// other half left to a process stall between a copy's stamp and its
// write.
const timerGap = 25 * time.Millisecond

// raceGap bounds how long before another write a timer's write may have
// been built and still be logged after it.
const raceGap = 5 * time.Millisecond

var (
	modelHdrs    = [][]byte{nil, []byte("inbox"), []byte("other inbox"), []byte("a longer header: session 42, outbox replies")}
	modelSizes   = []int{0, 1, 8, 64, 200, 599, 700, 1300}
	modelWindows = []int{4, 12, 64}
)

// Script ops: an op byte's top three bits pick the op, and the other
// five are its argument.
const (
	opSendA   = iota // a sends: argument bits 0-1 pick the header, 2-4 the payload size
	opSendB          // b sends, likewise
	opStepB          // hand b the next datagram in flight from a
	opStepA          // hand a the next datagram in flight from b
	opStepAll        // hand over everything in flight, both ways
	opRelease        // put the parked acks in flight
	opForge          // a confused peer acks all end (argument bit 0) has sequenced; with bit 1, an owed send instead (see do)
	opSleep          // let the clock run for argument mod 4 milliseconds
)

// chanModel runs one script.
type chanModel struct {
	t      *testing.T
	p      *pipe
	ends   [2]*endpoint // a, b
	pes    [2]*pipeEnd
	window int

	// Guarded by p.mu: the rule reads them as each datagram is written.
	data     []byte
	op, v    int       // next op from the front, next verdict from the back
	quiet    bool      // the script is spent: everything passes
	forgedTo [2]uint64 // frames from end i up to this seq always pass
	script   []string  // what has happened, for a failure's report

	sent     [2][]delivery // accepted sends from end i; seq k at k-1
	refused  [2]int        // sends from end i refused with ErrBacklog
	handed   []handover
	closedAt int // log length at Close
}

// handover is one datagram handed to an end: its log index (-1 for a
// forged ack, which acknowledges cum) and the log's length when it was
// handed over and when the end had dealt with it.
type handover struct {
	to            int
	idx           int
	cum           uint64
	before, after int
}

func FuzzChannel(f *testing.F) {
	send := func(from, hdr, size byte) byte { return from<<5 | size<<2 | hdr }
	stepAll := byte(opStepAll << 5)
	f.Add([]byte{0, send(0, 1, 3), stepAll, send(1, 1, 3), stepAll})
	burst := []byte{1}
	for i := byte(0); i < 24; i++ {
		burst = append(burst, send(0, i/5%4, i%8))
	}
	f.Add(append(burst, stepAll, stepAll, 4, 5, 6, 7)) // verdicts: drop, dup, swap, hold
	f.Add([]byte{2, send(0, 1, 2), send(0, 2, 2), send(0, 2, 2), opStepB << 5, stepAll, 6, 4})
	f.Add([]byte{1, send(0, 0, 3), send(0, 0, 3), opForge << 5, send(0, 0, 3), stepAll})
	// A forged ack while frames wait: window 4, eight frames backlogged;
	// window 12, the ninth and tenth frames staged.
	for _, w := range []struct{ window, sends, steps byte }{{0, 12, 4}, {1, 10, 8}} {
		s := []byte{w.window}
		s = append(s, bytes.Repeat([]byte{send(0, 0, 3)}, int(w.sends))...)
		s = append(s, bytes.Repeat([]byte{opStepB << 5}, int(w.steps))...)
		s = append(s, opForge<<5)
		s = append(s, bytes.Repeat([]byte{send(0, 0, 3)}, 14)...)
		f.Add(append(s, stepAll, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)) // verdicts: pass
	}
	// Owed sends past the backlog bound: window 4, nothing handed over,
	// 40 owed frames against the 4·(1+backlogWindows) = 36 a Send may
	// queue; a Send then is refused, and an owed one after it is taken.
	// Zeros the pipe does not take as verdicts are Sends, refused too.
	owed := func(from, hdr, big byte) byte { return opForge<<5 | big<<4 | hdr<<2 | 2 | from }
	s := []byte{0}
	for i := byte(0); i < 40; i++ {
		s = append(s, owed(0, i/7%4, i%5/4))
	}
	s = append(s, send(0, 0, 3), owed(0, 1, 1), stepAll)
	f.Add(append(s, bytes.Repeat([]byte{0}, 30)...)) // verdicts: pass
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			t.Skip("long scripts find nothing short ones do not")
		}
		runChannel(t, script)
	})
}

func runChannel(t *testing.T, data []byte) {
	m := &chanModel{t: t, data: data, v: len(data), window: modelWindows[0]}
	if len(data) > 0 {
		m.window, m.op = modelWindows[int(data[0])%len(modelWindows)], 1
	}
	m.p = newSteppedPipe(t, m.ruleLocked)
	m.pes = [2]*pipeEnd{m.p.a, m.p.b}
	cfg := modelCfg
	cfg.Window = m.window
	for i, e := range m.pes {
		m.ends[i] = newEndpoint(e, cfg)
		t.Cleanup(func() { m.ends[i].Close() })
		e.awaitReading()
	}
	m.note("window %d", m.window)
	for {
		b, ok := m.nextOp()
		if !ok {
			break
		}
		m.do(b)
	}
	m.settle()
	m.check()
	m.checkClose()
}

// note adds a line to the script report.
func (m *chanModel) note(format string, args ...any) {
	m.p.mu.Lock()
	m.script = append(m.script, fmt.Sprintf(format, args...))
	m.p.mu.Unlock()
}

// fail reports the script and the log with the broken rule.
func (m *chanModel) fail(format string, args ...any) {
	m.t.Helper()
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, format, args...)
	b.WriteString("\nscript:\n")
	for _, s := range m.script {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	b.WriteString("log:\n")
	for i, d := range m.p.log {
		fmt.Fprintf(&b, "  %3d %s\n", i, describe(d))
	}
	m.t.Fatal(b.String())
}

func describe(d dgramInfo) string {
	from := "b->a"
	if d.fromA {
		from = "a->b"
	}
	s := fmt.Sprintf("%s %4dB frames %v copies %v inline %v", from, d.size, d.frames, d.copies, d.inline)
	if d.hasCum {
		s += fmt.Sprintf(" ack %d", d.cum)
		if d.hasSel {
			s += fmt.Sprintf(" sel %b", d.sel)
		}
	}
	return s
}

func (m *chanModel) nextOp() (byte, bool) {
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	if m.op >= m.v {
		return 0, false
	}
	m.op++
	return m.data[m.op-1], true
}

// ruleLocked is the pipe's verdict on each datagram written. Caller
// holds p.mu.
func (m *chanModel) ruleLocked(d dgramInfo) verdict {
	from := end(d.fromA)
	if m.quiet || m.op >= m.v || slices.ContainsFunc(d.frames, func(s uint64) bool { return s <= m.forgedTo[from] }) {
		return pass
	}
	m.v--
	v := [8]verdict{pass, pass, pass, pass, drop, dup, swap, hold}[m.data[m.v]%8]
	if v == hold && !d.hasCum {
		v = pass // only an ack is held
	}
	if v != pass {
		name := [...]string{drop: "drop", dup: "dup", swap: "swap", hold: "hold"}[v]
		m.script = append(m.script, fmt.Sprintf("%s datagram %d", name, len(m.p.log)-1))
	}
	return v
}

// end is the index of end a (0) or b (1).
func end(a bool) int {
	if a {
		return 0
	}
	return 1
}

func (m *chanModel) do(b byte) {
	arg := b & 31
	switch b >> 5 {
	case opSendA, opSendB:
		m.send(int(b>>5), modelHdrs[arg&3], modelSizes[arg>>2], false)
	case opStepB:
		m.step(1)
	case opStepA:
		m.step(0)
	case opStepAll:
		for i := 0; i < 1000 && (m.step(0) || m.step(1)); i++ {
		}
	case opRelease:
		m.note("release")
		m.p.release(m.p.a)
		m.p.release(m.p.b)
	case opForge:
		if arg&2 == 0 {
			m.forge(int(arg & 1))
		} else { // end bit 0 sends owed: bits 2-3 pick the header, bit 4 a 64 or 700 byte payload
			m.send(int(arg&1), modelHdrs[arg>>2&3], modelSizes[3+3*(arg>>4)], true)
		}
	case opSleep:
		time.Sleep(time.Duration(arg%4) * time.Millisecond)
	}
}

// send sends from end from with Send, or with SendOwed, which past the
// backlog bound takes the frame all the same.
func (m *chanModel) send(from int, hdr []byte, size int, owed bool) {
	seq := len(m.sent[from]) + 1
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(seq + i)
	}
	send, call := m.ends[from].Send, "Send"
	if owed {
		send, call = m.ends[from].SendOwed, "SendOwed"
	}
	err := send(m.ends[1-from].LocalAddr(), hdr, payload)
	switch {
	case err == nil:
		m.sent[from] = append(m.sent[from], delivery{hdr: hdr, payload: payload})
		m.note("%c %s seq %d: header %q, %d bytes", 'a'+from, call, seq, hdr, size)
	case errors.Is(err, ErrBacklog) && !owed:
		m.refused[from]++
		m.note("%c refused: %v", 'a'+from, err)
		if m.untransmitted(from) < backlogWindows*m.window {
			m.fail("%c's Send was refused with %d frames untransmitted, fewer than the backlog bound %d", 'a'+from, m.untransmitted(from), backlogWindows*m.window)
		}
	default:
		m.fail("%c's %s: %v", 'a'+from, call, err)
	}
}

// untransmitted counts end i's accepted sends that are not on the wire.
func (m *chanModel) untransmitted(i int) int {
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	return len(m.sent[i]) - int(m.topLocked(i, func(int) bool { return true }))
}

// step hands end i the next datagram in flight towards it.
func (m *chanModel) step(i int) bool {
	m.p.mu.Lock()
	before := len(m.p.log)
	m.p.mu.Unlock()
	idx, ok := m.p.step(m.pes[i])
	if !ok {
		return false
	}
	m.p.mu.Lock()
	m.handed = append(m.handed, handover{to: i, idx: idx, before: before, after: len(m.p.log)})
	m.script = append(m.script, fmt.Sprintf("%c is handed datagram %d", 'a'+i, idx))
	m.p.mu.Unlock()
	return true
}

// forge hands end i an ack from a confused peer, acknowledging far past
// every frame i has sequenced, when every frame i has transmitted is
// acknowledged or delivered. A frame still staged or backlogged cannot
// have arrived, so the model counts the ack for the frames on the wire
// before it was handed (a timer's write while it was being dealt with
// included), not for those the layer sent in answer. The pipe passes
// every frame sequenced by then, in case a timer's write let the ack
// cover it in flight.
func (m *chanModel) forge(i int) {
	cum := uint64(m.delivered(1 - i))
	m.p.mu.Lock()
	top := m.topLocked(i, func(int) bool { return true })
	for _, h := range m.handed {
		if h.to == i {
			cum = max(cum, h.cum)
			if h.idx >= 0 && m.p.log[h.idx].hasCum {
				cum = max(cum, m.p.log[h.idx].cum)
			}
		}
	}
	n := uint64(len(m.sent[i]))
	if top > cum || n == top {
		m.p.mu.Unlock()
		return
	}
	m.forgedTo[i] = n
	before := len(m.p.log)
	m.script = append(m.script, fmt.Sprintf("%c is handed a forged ack, %d of its %d frames on the wire", 'a'+i, top, n))
	m.p.mu.Unlock()
	m.pes[i].inbox <- appendHeader(nil, true, 1<<40, 0, false)
	m.pes[i].awaitReading()
	m.p.mu.Lock()
	after := len(m.p.log)
	top = m.topLocked(i, func(k int) bool { return k < before || k < after && m.p.log[k].timer })
	m.handed = append(m.handed, handover{to: i, idx: -1, cum: top, before: before, after: after})
	m.p.mu.Unlock()
}

// topLocked returns the highest seq end i sent in a logged datagram that
// counts. Caller holds p.mu.
func (m *chanModel) topLocked(i int, counts func(k int) bool) uint64 {
	var top uint64
	for k, d := range m.p.log {
		if d.fromA == (i == 0) && counts(k) {
			for _, s := range d.frames {
				top = max(top, s)
			}
		}
	}
	return top
}

// settle passes everything from now on and runs the channel until every
// accepted send is delivered and acknowledged.
func (m *chanModel) settle() {
	m.p.mu.Lock()
	m.quiet = true
	m.p.mu.Unlock()
	m.note("quiet")
	m.p.release(m.p.a)
	m.p.release(m.p.b)
	timeout := time.After(10 * time.Second)
	for !m.done() {
		if m.step(0) || m.step(1) {
			continue
		}
		m.p.mu.Lock()
		idle := len(m.p.a.queue) == 0 && len(m.p.b.queue) == 0
		changed := m.p.changed
		m.p.mu.Unlock()
		if !idle {
			continue
		}
		select {
		case <-changed: // a timer wrote
		case <-timeout:
			m.fail("the channel never settled: %d and %d sent, %d and %d delivered, %d and %d queued",
				len(m.sent[0]), len(m.sent[1]), m.delivered(1), m.delivered(0), m.ends[0].QueueDepth(), m.ends[1].QueueDepth())
		}
	}
}

func (m *chanModel) delivered(i int) int {
	m.ends[i].mu.Lock()
	defer m.ends[i].mu.Unlock()
	return len(m.ends[i].rx)
}

func (m *chanModel) done() bool {
	for i := range m.ends {
		if m.delivered(1-i) < len(m.sent[i]) || m.ends[i].QueueDepth() > 0 {
			return false
		}
	}
	return true
}

// acks returns what handover h, as the log has it, acknowledges: the cumulative point and
// the selective bitmap, if any.
func acks(log []dgramInfo, h handover) (cum, sel uint64, ok bool) {
	if h.idx < 0 {
		return h.cum, 0, true
	}
	d := log[h.idx]
	return d.cum, d.sel, d.hasCum
}

// covers reports whether an ack of cum and sel acknowledges seq.
func covers(cum, sel, seq uint64) bool {
	return seq <= cum || seq >= cum+selBase && seq-cum-selBase < 64 && sel>>(seq-cum-selBase)&1 != 0
}

func (m *chanModel) check() {
	m.checkDelivered()
	m.p.mu.Lock()
	log := slices.Clone(m.p.log)
	handed := slices.Clone(m.handed)
	m.p.mu.Unlock()
	copyAt := map[dgramKey][]int{} // log indices of each frame's copies, in order
	for i, d := range log {
		from := end(d.fromA)
		if d.size > dgramHdrMax+datagramBudget && len(d.frames) > 1 {
			m.fail("datagram %d: %d frames in %d bytes, budget %d", i, len(d.frames), d.size, dgramHdrMax+datagramBudget)
		}
		for k, s := range d.frames {
			if s == 0 || s > uint64(len(m.sent[from])) {
				m.fail("datagram %d: seq %d was never sent", i, s)
			}
			prev := []byte(nil)
			if s > 1 {
				prev = m.sent[from][s-2].hdr
			}
			if want := !bytes.Equal(m.sent[from][s-1].hdr, prev); d.inline[k] != want {
				m.fail("datagram %d: seq %d carries its header: %v, want %v", i, s, d.inline[k], want)
			}
			key := dgramKey{d.fromA, s}
			if n := len(copyAt[key]); n > 0 && !m.condemned(log, handed, from, s, copyAt[key][n-1], n, i) {
				m.fail("datagram %d: seq %d sent again, although nothing condemned its copy in datagram %d", i, s, copyAt[key][n-1])
			}
			copyAt[key] = append(copyAt[key], i)
		}
		if len(d.frames) > 0 {
			if n := m.outstanding(log, handed, copyAt, from, i); n > m.window {
				m.fail("datagram %d: %d frames transmitted and unacknowledged, window %d", i, n, m.window)
			}
			if !d.hasCum && !d.timer {
				m.checkOwedAck(log, handed, from, i)
			}
		}
	}
	for i, e := range m.ends {
		if got := e.Stats().BacklogFull; got != uint64(m.refused[i]) {
			m.fail("%c: Stats().BacklogFull = %d, %d sends refused", 'a'+i, got, m.refused[i])
		}
	}
}

func (m *chanModel) checkDelivered() {
	for from := range m.sent {
		to := m.ends[1-from]
		to.mu.Lock()
		rx := slices.Clone(to.rx)
		to.mu.Unlock()
		if len(rx) != len(m.sent[from]) {
			m.fail("%c delivered %d messages, %d sent", 'a'+1-from, len(rx), len(m.sent[from]))
		}
		for k, got := range rx {
			want := m.sent[from][k]
			if got.from != m.ends[from].LocalAddr() || !bytes.Equal(got.hdr, want.hdr) || !bytes.Equal(got.payload, want.payload) {
				m.fail("%c's delivery %d: header %q, %d bytes from %v; sent header %q, %d bytes", 'a'+1-from, k+1, got.hdr, len(got.payload), got.from, want.hdr, len(want.payload))
			}
		}
	}
}

// condemned reports whether the log condemns the copy of end from's seq
// s at log index j, its n-th, by the time another is written at i.
func (m *chanModel) condemned(log []dgramInfo, handed []handover, from int, s uint64, j, n, i int) bool {
	if log[i].at.Sub(log[j].at) >= timerGap {
		return true
	}
	for _, h := range handed {
		cum, sel, ok := acks(log, h)
		// h counts when handed before i was written and dealt with
		// after j was: it may have come after the copy left.
		if h.to != from || !ok || h.before > i || h.after <= j || covers(cum, sel, s) {
			continue
		}
		if n == 1 && s > cum && bits.OnesCount64(sel>>(s-cum-1)) >= dupThresh {
			return true // three later seqs arrived
		}
		// RACK: a frame sent after the copy arrived. A timer's write
		// may have been built before a write the log puts ahead of it.
		for k := 0; k < h.after; k++ {
			d := log[k]
			after := k > j || (d.timer || log[j].timer) && log[j].at.Sub(d.at) < raceGap
			if after && end(d.fromA) == from && slices.ContainsFunc(d.frames, func(g uint64) bool { return g != s && covers(cum, sel, g) }) {
				return true
			}
		}
	}
	return false
}

// outstanding counts end from's frames transmitted by log index i and
// not acknowledged by any ack handed to it before i was written.
func (m *chanModel) outstanding(log []dgramInfo, handed []handover, copyAt map[dgramKey][]int, from, i int) int {
	n := 0
	for s := uint64(1); s <= uint64(len(m.sent[from])); s++ {
		if len(copyAt[dgramKey{from == 0, s}]) == 0 {
			continue
		}
		acked := false
		for _, h := range handed {
			if cum, sel, ok := acks(log, h); h.to == from && ok && h.before <= i && covers(cum, sel, s) {
				acked = true
				break
			}
		}
		if !acked {
			n++
		}
	}
	return n
}

// checkOwedAck fails if the frames end from wrote at i, with no ack,
// left while its peer was owed one: frames were handed to it, and dealt
// with, since it last sent an ack. A timer's ack written after i may
// have been built before it, and then the ack was not owed.
func (m *chanModel) checkOwedAck(log []dgramInfo, handed []handover, from, i int) {
	owedBy := -1
	for _, h := range handed {
		if h.to == from && h.idx >= 0 && len(log[h.idx].frames) > 0 && h.after <= i {
			owedBy = h.before
		}
	}
	if owedBy < 0 {
		return
	}
	for k, d := range log {
		if end(d.fromA) == from && d.hasCum && (k >= owedBy && k < i || k > i && d.timer) {
			return
		}
	}
	m.fail("datagram %d: frames left without the ack owed since datagram %d was handed over", i, owedBy)
}

// checkClose closes both ends and checks that nothing moves after.
func (m *chanModel) checkClose() {
	for _, e := range m.ends {
		e.Close()
	}
	m.p.mu.Lock()
	m.closedAt = len(m.p.log)
	m.p.mu.Unlock()
	rx := [2]int{m.delivered(0), m.delivered(1)}
	for i, e := range m.ends {
		if err := e.Send(m.ends[1-i].LocalAddr(), nil, []byte("late")); !errors.Is(err, ErrClosed) {
			m.fail("%c: Send after Close returned %v", 'a'+i, err)
		}
	}
	time.Sleep(2 * modelCfg.AckDelay)
	m.p.mu.Lock()
	wrote := len(m.p.log) - m.closedAt
	m.p.mu.Unlock()
	if wrote != 0 || m.delivered(0) != rx[0] || m.delivered(1) != rx[1] {
		m.fail("after Close: %d datagrams written, deliveries %v -> %d, %d", wrote, rx, m.delivered(0), m.delivered(1))
	}
}
