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

// duo is two channel machines joined by an in-memory line, on a virtual
// clock: nothing moves unless the test moves it. send, step and advance
// are the only steps, so a test decides every interleaving, and a
// resend is the timer's exactly when tick made it.
type duo struct {
	now    time.Time
	ch     [2]channel
	stats  [2]statCounters
	line   [2][]queued // in flight towards end i, oldest first
	held   [2]*queued  // swapped: waits for the next datagram towards end i
	parked [2][]queued // held acks towards end i, waiting for release
	log    []dgramInfo
	copies [2]map[uint64]int // per end: how often each seq has been written
	rx     [2][]rxFrame      // what end i delivered, in order

	rule  func(dgramInfo) verdict // nil passes everything
	wrote func(dgramInfo)         // sees each datagram as it is written, before rule
}

// verdict is what the rule does with one datagram.
type verdict int

const (
	pass verdict = iota
	drop
	dup  // deliver twice
	swap // deliver after the next datagram in the same direction
	hold // park a datagram carrying an ack until release; one without passes
)

// dgramInfo is the log's reading of one written datagram.
type dgramInfo struct {
	from       int       // the end that wrote it: 0 is a, 1 is b
	fromA      bool      // from == 0
	tick       bool      // tick wrote it
	hasCum     bool      // the datagram carries an ack
	cum        uint64    // the ack's cumulative point
	sel        uint64    // the ack's selective bitmap
	hasSel     bool      // the ack carries one
	floor      uint64    // the floor it carries, or 0
	frames     []uint64  // the data seqs it carries, in order
	inline     []bool    // per frame: it carries its header
	copies     []int     // per frame: 1 the first time its (direction, seq) is written, 2 the second, ...
	size       int       // datagram length
	frameBytes int       // of which frames
	at         time.Time // when it was written
}

// data reports whether d, from end a, carries the copy-th transmission
// of data frame seq.
func (d dgramInfo) data(seq uint64, copy int) bool {
	i := slices.Index(d.frames, seq)
	return d.fromA && i >= 0 && d.copies[i] == copy
}

// carries reports whether d is a datagram from end a bearing data frame
// seq.
func (d dgramInfo) carries(seq uint64) bool {
	return d.fromA && slices.Contains(d.frames, seq)
}

// bareAck reports whether d is an ack with no frame.
func (d dgramInfo) bareAck() bool { return d.hasCum && len(d.frames) == 0 }

// resent reports whether d carries a frame that was on the wire before.
func (d dgramInfo) resent() bool {
	return slices.ContainsFunc(d.copies, func(c int) bool { return c > 1 })
}

// parseDgram is the log's reading of datagram b, short of its copy
// counts and time.
func parseDgram(from int, b []byte) dgramInfo {
	d := dgramInfo{from: from, fromA: from == 0, size: len(b)}
	h, off, _ := parseHeader(b)
	d.cum, d.hasCum, d.sel, d.hasSel, d.floor, d.frameBytes = h.cum, h.hasCum, h.sel, h.hasSel, h.floor, len(b)-off
	for {
		f, next, ok := nextFrame(b, off)
		if !ok {
			return d
		}
		d.frames, d.inline, off = append(d.frames, f.seq), append(d.inline, f.inline), next
	}
}

// queued is one datagram in flight, with its index in the log.
type queued struct {
	idx  int
	data []byte
}

type rxFrame struct {
	seq          uint64
	hdr, payload []byte
}

// newDuo returns a duo of two channels with cfg, whose line follows
// rule.
func newDuo(cfg Config, rule func(dgramInfo) verdict) *duo {
	d := &duo{now: time.Unix(1_000_000, 0), rule: rule}
	for i := range d.ch {
		d.ch[i], d.copies[i] = newChannel(cfg.withDefaults(), &d.stats[i]), make(map[uint64]int)
	}
	return d
}

// write logs the datagrams a transition of end from returned and puts
// them on the line, as the rule says.
func (d *duo) write(from int, out []*[]byte, tick bool) {
	for _, b := range out {
		data := bytes.Clone(*b)
		dgramPool.Put(b)
		l := parseDgram(from, data)
		l.at, l.tick = d.now, tick
		for _, seq := range l.frames {
			d.copies[from][seq]++
			l.copies = append(l.copies, d.copies[from][seq])
		}
		d.log = append(d.log, l)
		if d.wrote != nil {
			d.wrote(l)
		}
		v := pass
		if d.rule != nil {
			v = d.rule(l)
		}
		to, q := 1-from, queued{len(d.log) - 1, data}
		switch {
		case v == swap && d.held[to] == nil:
			d.held[to] = &q
			continue
		case v == hold && l.hasCum:
			d.parked[to] = append(d.parked[to], q)
			continue
		}
		if v != drop {
			d.line[to] = append(d.line[to], q)
			if v == dup {
				d.line[to] = append(d.line[to], queued{q.idx, bytes.Clone(data)})
			}
		}
		if d.held[to] != nil {
			d.line[to] = append(d.line[to], *d.held[to])
			d.held[to] = nil
		}
	}
}

// send sends from end i, with SendOwed's refusal rule when owed.
func (d *duo) send(i int, hdr, payload []byte, owed bool) error {
	var buf [4]*[]byte
	out, err := d.ch[i].send(buf[:0], d.now, hdr, payload, owed)
	d.write(i, out, false)
	return err
}

// step hands end i the next datagram in flight towards it, if any.
func (d *duo) step(i int) bool {
	if len(d.line[i]) == 0 {
		return false
	}
	q := d.line[i][0]
	d.line[i] = d.line[i][1:]
	d.hand(i, q.data)
	return true
}

// hand gives end i one datagram.
func (d *duo) hand(i int, data []byte) {
	var buf [8]*[]byte
	deliv, out := d.ch[i].receive(buf[:0], d.now, data)
	for _, f := range deliv {
		d.rx[i] = append(d.rx[i], rxFrame{f.seq, f.hdr, f.payload})
	}
	d.write(i, out, false)
}

// release puts the swapped datagram and the parked acks towards end i
// on the line.
func (d *duo) release(i int) {
	if d.held[i] != nil {
		d.line[i] = append(d.line[i], *d.held[i])
		d.held[i] = nil
	}
	d.line[i] = append(d.line[i], d.parked[i]...)
	d.parked[i] = nil
}

// advance runs the clock for dt, ticking each end at its deadlines as
// they come. afterTick, if set, sees each end that ticked.
func (d *duo) advance(dt time.Duration, afterTick func(i int)) error {
	end := d.now.Add(dt)
	for n := 0; ; n++ {
		i, at := -1, time.Time{}
		for k := range d.ch {
			if dl := d.ch[k].deadline(); !dl.IsZero() && !dl.After(end) && (i < 0 || dl.Before(at)) {
				i, at = k, dl
			}
		}
		if i < 0 {
			d.now = end
			return nil
		}
		if n == 10000 {
			return fmt.Errorf("10000 ticks in %v: end %c's deadline never moves past %v", dt, 'a'+i, at.Sub(d.now))
		}
		if at.After(d.now) {
			d.now = at
		}
		var buf [8]*[]byte
		d.write(i, d.ch[i].tick(buf[:0], d.now), true)
		if afterTick != nil {
			afterTick(i)
		}
	}
}

// flow runs the duo as a line with a fixed one-way delay: each datagram
// is handed over oneWay after it was written, in order, and the clock
// runs and the timers tick in between, until done reports true.
func (d *duo) flow(t *testing.T, oneWay time.Duration, done func() bool) {
	t.Helper()
	for n := 0; !done(); n++ {
		next := d.next(oneWay)
		if next.IsZero() || n == 1_000_000 {
			t.Fatalf("nothing left to happen, or too much: %d events; a: %+v; b: %+v", n, d.stats[0].snapshot(), d.stats[1].snapshot())
		}
		d.run(t, oneWay, next)
	}
}

// sleep runs the line for dt.
func (d *duo) sleep(t *testing.T, oneWay, dt time.Duration) {
	t.Helper()
	for end := d.now.Add(dt); d.now.Before(end); {
		next := d.next(oneWay)
		if next.IsZero() || next.After(end) {
			next = end
		}
		d.run(t, oneWay, next)
	}
}

// next is when the line or a timer next has something to do, or zero.
func (d *duo) next(oneWay time.Duration) time.Time {
	next := d.ch[0].deadline()
	if dl := d.ch[1].deadline(); next.IsZero() || !dl.IsZero() && dl.Before(next) {
		next = dl
	}
	for i := range d.line {
		if len(d.line[i]) > 0 {
			if due := d.log[d.line[i][0].idx].at.Add(oneWay); next.IsZero() || due.Before(next) {
				next = due
			}
		}
	}
	return next
}

// run runs the clock to at, then hands over what has arrived by then.
func (d *duo) run(t *testing.T, oneWay time.Duration, at time.Time) {
	t.Helper()
	if err := d.advance(max(at.Sub(d.now), 0), nil); err != nil {
		t.Fatal(err)
	}
	for i := range d.line {
		for len(d.line[i]) > 0 && !d.log[d.line[i][0].idx].at.Add(oneWay).After(d.now) {
			d.step(i)
		}
	}
}

// await flows until a dgramInfo datagram matches and returns the first
// that does.
func (d *duo) await(t *testing.T, oneWay time.Duration, match func(dgramInfo) bool) dgramInfo {
	t.Helper()
	k := -1
	d.flow(t, oneWay, func() bool {
		k = slices.IndexFunc(d.log, match)
		return k >= 0
	})
	return d.log[k]
}

// count returns how many dgramInfo datagrams match.
func (d *duo) count(match func(dgramInfo) bool) int {
	n := 0
	for _, l := range d.log {
		if match(l) {
			n++
		}
	}
	return n
}

// depth is what end i holds for transmission: unacked and staged frames.
func (d *duo) depth(i int) int { return len(d.ch[i].unacked) + len(d.ch[i].staged) }

// The reference model of the reliable channel. FuzzChannel reads its
// input as a script for a duo: the ops at the front of the input send on
// either end, hand datagrams over, release parked acks, forge an ack,
// run the clock and cut the line for long enough to give frames up, and
// the bytes at the back are the line's verdicts on the datagrams in the
// order they are written. Once the script is spent the line passes
// everything, and the model runs the duo until it is quiet: every
// accepted send delivered or given up on, and acknowledged. It checks
// what the channel promises, over the datagram log, the hand-overs, the
// deliveries and Stats, never over the machines' fields:
//
//   - each end delivers the other's accepted sends in order, at most
//     once, with byte-identical header and payload: no frame is
//     delivered after a later one;
//   - a frame goes undelivered only if its sender gave up on it: the
//     receiver's Skipped counts exactly the undelivered frames and never
//     exceeds the sender's Failures (a frame given up on may still have
//     arrived, if only its ack was lost), and every frame sequenced after
//     the sender's last give-up is delivered;
//   - a sender never has more than Window frames transmitted and not yet
//     acknowledged by an ack it has been handed, beyond those it gave up
//     on;
//   - no datagram carries more than the budget of frames, unless it is
//     one frame too large for it;
//   - a frame carries its header exactly when the header differs from
//     that of the frame before it in seq order;
//   - no frame is sent again unless its previous copy was condemned: by
//     tick, at least the timer's floor (RTO/2) after that copy, or by the
//     ack being handed over, naming three later seqs above a never-resent
//     frame, or by an ack of a frame sent later than that copy (RACK);
//   - a frame leaves with the ack its peer is owed, so no bare ack goes
//     out where a frame could have carried it;
//   - a datagram handed over is answered with at most one bare ack;
//   - send refuses a frame with ErrBacklog only past the backlog bound,
//     and Stats counts each refusal; an owed send is never refused.
//
// Every rule is exact: the duo orders every write, so none needs the
// benefit of a doubt.

// modelCfg gives a frame up on its third expiry, which takes a cut of
// 700ms at least; its timer floor is RTO/2 = 50ms.
var modelCfg = Config{RTO: 100 * time.Millisecond, AckDelay: 2 * time.Millisecond, MaxRetries: 2}

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
	opClock          // run the clock for argument milliseconds; from 16 on, cut the line for (argument-15)·500ms
)

// chanModel runs one script.
type chanModel struct {
	*duo
	t      *testing.T
	window int

	data   []byte
	op, v  int      // next op from the front, next verdict from the back
	quiet  bool     // the script is spent: everything passes
	cut    bool     // the line drops everything
	script []string // what has happened, for a failure's report

	sent     [2][]delivery // accepted sends from end i; seq k at k-1
	refused  [2]int        // sends from end i refused with ErrBacklog
	failures [2]uint64     // end i's Stats().Failures after its last tick
	failAt   [2]int        // sends end i had accepted when its Failures last rose

	// What the log has shown so far, per sending end.
	cur         *dgramInfo // the datagram being handed over, to end curTo
	curTo       int
	lastCopy    [2]map[uint64]int // seq -> log index of its latest copy
	acked       [2]map[uint64]bool
	cumTo       [2]uint64    // highest cumulative ack handed to the end
	maxTx       [2]uint64    // highest seq the end has transmitted
	outstanding [2]int       // transmitted and not acknowledged to the end
	ackedAt     [2]time.Time // latest time an acknowledged frame's latest copy was sent
	lastCum     [2]int       // log index of the end's latest datagram carrying an ack
	owedSince   [2]int       // log length when the latest hand-over of frames to the end began
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
	// Zeros the line does not take as verdicts are Sends, refused too.
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
	cfg := modelCfg
	cfg.Window = m.window
	m.duo = newDuo(cfg, nil)
	m.rule, m.wrote = m.verdict, m.checkWrite
	for i := range m.lastCopy {
		m.lastCopy[i], m.acked[i] = make(map[uint64]int), make(map[uint64]bool)
		m.lastCum[i], m.owedSince[i] = -1, -1
	}
	m.note("window %d", m.window)
	for m.op < m.v {
		m.op++
		m.do(m.data[m.op-1])
	}
	m.settle()
	m.checkDelivered()
	for i := range m.stats {
		if got := m.stats[i].backlogFull.Load(); got != uint64(m.refused[i]) {
			m.fail("%c: Stats().BacklogFull = %d, %d sends refused", 'a'+i, got, m.refused[i])
		}
	}
}

// note adds a line to the script report.
func (m *chanModel) note(format string, args ...any) {
	m.script = append(m.script, fmt.Sprintf(format, args...))
}

// fail reports the script and the log with the broken rule.
func (m *chanModel) fail(format string, args ...any) {
	m.t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, format+"\nscript:\n  %s\nlog:\n", append(args, strings.Join(m.script, "\n  "))...)
	for i, d := range m.log {
		fmt.Fprintf(&b, "  %3d %v %c->%c %4dB frames %v copies %v inline %v ack %v %d sel %b floor %d tick %v\n",
			i, d.at.Sub(time.Unix(1_000_000, 0)), 'a'+d.from, 'b'-d.from, d.size, d.frames, d.copies, d.inline, d.hasCum, d.cum, d.sel, d.floor, d.tick)
	}
	m.t.Fatal(b.String())
}

// verdict is the line's verdict on each datagram written.
func (m *chanModel) verdict(d dgramInfo) verdict {
	if m.cut {
		return drop
	}
	if m.quiet || m.op >= m.v {
		return pass
	}
	m.v--
	v := [8]verdict{pass, pass, pass, pass, drop, dup, swap, hold}[m.data[m.v]%8]
	if v == hold && !d.hasCum {
		v = pass // only an ack is held
	}
	if v != pass {
		m.note("%s datagram %d", [...]string{drop: "drop", dup: "dup", swap: "swap", hold: "hold"}[v], len(m.log)-1)
	}
	return v
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
		m.release(0)
		m.release(1)
	case opForge:
		if arg&2 == 0 {
			m.forge(int(arg & 1))
		} else { // end bit 0 sends owed: bits 2-3 pick the header, bit 4 a 64 or 700 byte payload
			m.send(int(arg&1), modelHdrs[arg>>2&3], modelSizes[3+3*(arg>>4)], true)
		}
	case opClock:
		dt := time.Duration(arg) * time.Millisecond
		if arg >= 16 {
			dt = time.Duration(arg-15) * 500 * time.Millisecond
			m.note("line cut for %v", dt)
			m.cut = true
			m.line, m.held, m.parked = [2][]queued{}, [2]*queued{}, [2][]queued{}
		} else {
			m.note("clock runs %v", dt)
		}
		m.run(dt)
		m.cut = false
	}
}

// run runs the clock for dt, noting each end's give-ups.
func (m *chanModel) run(dt time.Duration) {
	err := m.advance(dt, func(i int) {
		if f := m.stats[i].failures.Load(); f > m.failures[i] {
			m.note("%c gave up %d frames", 'a'+i, f-m.failures[i])
			m.failures[i], m.failAt[i] = f, len(m.sent[i])
		}
	})
	if err != nil {
		m.fail("%v", err)
	}
}

// send sends from end from, owed or not.
func (m *chanModel) send(from int, hdr []byte, size int, owed bool) {
	seq := len(m.sent[from]) + 1
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(seq + i)
	}
	call := "Send"
	if owed {
		call = "SendOwed"
	}
	// Noted first: the datagrams it writes follow it in the report.
	m.note("%c %s seq %d: header %q, %d bytes", 'a'+from, call, seq, hdr, size)
	m.sent[from] = append(m.sent[from], delivery{hdr: hdr, payload: payload})
	err := m.duo.send(from, hdr, payload, owed)
	switch {
	case err == nil:
	case errors.Is(err, ErrBacklog) && !owed:
		m.sent[from] = m.sent[from][:seq-1]
		m.refused[from]++
		m.note("  refused: %v", err)
		if n := len(m.sent[from]) - int(m.maxTx[from]); n < backlogWindows*m.window {
			m.fail("%c's Send was refused with %d frames untransmitted, fewer than the backlog bound %d", 'a'+from, n, backlogWindows*m.window)
		}
	default:
		m.fail("%c's %s: %v", 'a'+from, call, err)
	}
}

// step hands end i the next datagram in flight towards it.
func (m *chanModel) step(i int) bool {
	if len(m.line[i]) == 0 {
		return false
	}
	q := m.line[i][0]
	m.note("%c is handed datagram %d", 'a'+i, q.idx)
	m.handOver(i, m.log[q.idx], func() { m.duo.step(i) })
	return true
}

// handOver runs one hand-over of datagram d to end i: its ack is the
// end's before anything it writes in answer, and it is answered with at
// most one bare ack.
func (m *chanModel) handOver(i int, d dgramInfo, run func()) {
	before := len(m.log)
	if d.hasCum {
		for s := m.cumTo[i] + 1; s <= min(d.cum, uint64(len(m.sent[i]))); s++ {
			m.ack(i, s)
		}
		m.cumTo[i] = max(m.cumTo[i], d.cum)
		for b := d.sel; b != 0; b &= b - 1 {
			if s := d.cum + selBase + uint64(bits.TrailingZeros64(b)); s <= uint64(len(m.sent[i])) {
				m.ack(i, s)
			}
		}
	}
	m.cur, m.curTo = &d, i
	run()
	m.cur = nil
	bare := 0
	for _, w := range m.log[before:] {
		if w.from == i && len(w.frames) == 0 {
			bare++
		}
	}
	if bare > 1 {
		m.fail("datagram %d answered with %d bare acks, want at most one", before-1, bare)
	}
	if len(d.frames) > 0 {
		m.owedSince[i] = before
	}
}

// ack notes that end i has been handed an ack of seq s.
func (m *chanModel) ack(i int, s uint64) {
	if m.acked[i][s] {
		return
	}
	m.acked[i][s] = true
	if j, ok := m.lastCopy[i][s]; ok {
		m.outstanding[i]--
		if at := m.log[j].at; at.After(m.ackedAt[i]) {
			m.ackedAt[i] = at
		}
	}
}

// forge hands end i an ack from a confused peer, acknowledging far past
// every frame i has sequenced, when every frame i has transmitted is
// acknowledged or past its peer's delivery. A frame still staged or
// backlogged cannot have arrived, so the model counts the ack for the
// frames on the wire, not for those the end sends in answer.
func (m *chanModel) forge(i int) {
	top, n, delivered := m.maxTx[i], uint64(len(m.sent[i])), uint64(0)
	if rx := m.rx[1-i]; len(rx) > 0 {
		delivered = rx[len(rx)-1].seq
	}
	if top > max(delivered, m.cumTo[i]) || n == top {
		return
	}
	m.note("%c is handed a forged ack, %d of its %d frames on the wire", 'a'+i, top, n)
	m.handOver(i, dgramInfo{hasCum: true, cum: top}, func() { m.hand(i, appendHeader(nil, true, 1<<40, 0, false)) })
}

// checkWrite checks each datagram as it is written, against what the
// log has shown so far.
func (m *chanModel) checkWrite(d dgramInfo) {
	i, from := len(m.log)-1, d.from
	if len(d.frames) > 1 && d.frameBytes > datagramBudget {
		m.fail("datagram %d: %d frames in %d bytes, budget %d", i, len(d.frames), d.frameBytes, datagramBudget)
	}
	if len(d.frames) > 0 && !d.hasCum && m.lastCum[from] < m.owedSince[from] {
		m.fail("datagram %d: frames left without the ack owed since the hand-over at log length %d", i, m.owedSince[from])
	}
	if d.hasCum {
		m.lastCum[from] = i
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
		j, again := m.lastCopy[from][s]
		switch {
		case !again:
			m.maxTx[from] = max(m.maxTx[from], s)
			if !m.acked[from][s] {
				m.outstanding[from]++
			}
		case !m.condemned(d, s, j, d.copies[k]-1):
			m.fail("datagram %d: seq %d sent again, although nothing condemned its copy in datagram %d", i, s, j)
		}
		m.lastCopy[from][s] = i
	}
	if n, f := m.outstanding[from], m.stats[from].failures.Load(); len(d.frames) > 0 && n > m.window+int(f) {
		m.fail("datagram %d: %d frames transmitted and unacknowledged, window %d, %d given up", i, n, m.window, f)
	}
}

// condemned reports whether seq s, written again in d, had its
// previous copy (log index j, the n-th) condemned.
func (m *chanModel) condemned(d dgramInfo, s uint64, j, n int) bool {
	if d.tick {
		return d.at.Sub(m.log[j].at) >= modelCfg.RTO/2
	}
	h := m.cur
	if h == nil || m.curTo != d.from || !h.hasCum {
		return false // only an arriving ack resends at once
	}
	if n == 1 && s > h.cum && bits.OnesCount64(h.sel>>(s-h.cum-1)) >= 3 {
		return true // three later seqs arrived
	}
	return m.ackedAt[d.from].After(m.log[j].at) // RACK: a frame sent later than the copy arrived
}

// settle passes everything from now on and runs the duo until every
// accepted send is delivered and acknowledged.
func (m *chanModel) settle() {
	m.quiet = true
	m.note("quiet")
	m.release(0)
	m.release(1)
	for n := 0; !m.done(); n++ {
		if m.step(0) || m.step(1) {
			continue
		}
		next := m.ch[0].deadline()
		if dl := m.ch[1].deadline(); next.IsZero() || !dl.IsZero() && dl.Before(next) {
			next = dl
		}
		if next.IsZero() || n > 100000 {
			m.fail("the channel never settled: %d and %d sent, %d and %d delivered, %d and %d unacked",
				len(m.sent[0]), len(m.sent[1]), len(m.rx[1]), len(m.rx[0]), len(m.ch[0].unacked), len(m.ch[1].unacked))
		}
		m.run(max(next.Sub(m.now), 0))
	}
}

// done reports whether every accepted send has been delivered or
// skipped, every frame acknowledged or given up on, and nothing is in
// flight.
func (m *chanModel) done() bool {
	for i := range m.ch {
		passed := uint64(len(m.rx[1-i])) + m.stats[1-i].skipped.Load()
		if passed < uint64(len(m.sent[i])) || len(m.ch[i].unacked) > 0 || len(m.line[i]) > 0 {
			return false
		}
	}
	return true
}

func (m *chanModel) checkDelivered() {
	for from := range m.sent {
		rx, sent, to := m.rx[1-from], m.sent[from], 'a'+1-from
		last, after := uint64(0), 0
		for k, got := range rx {
			if got.seq <= last || got.seq > uint64(len(sent)) {
				m.fail("%c's delivery %d is seq %d, after seq %d; %d sent", to, k+1, got.seq, last, len(sent))
			}
			if want := sent[got.seq-1]; !bytes.Equal(got.hdr, want.hdr) || !bytes.Equal(got.payload, want.payload) {
				m.fail("%c's delivery %d, seq %d: header %q, %d bytes; sent header %q, %d bytes", to, k+1, got.seq, got.hdr, len(got.payload), want.hdr, len(want.payload))
			}
			if last = got.seq; got.seq > uint64(m.failAt[from]) {
				after++
			}
		}
		skipped, failures := m.stats[1-from].skipped.Load(), m.stats[from].failures.Load()
		if missing := uint64(len(sent) - len(rx)); skipped != missing || skipped > failures {
			m.fail("%c delivered %d of %d, Skipped = %d; %c's Failures = %d", to, len(rx), len(sent), skipped, 'a'+from, failures)
		}
		if want := len(sent) - m.failAt[from]; after != want {
			m.fail("%c delivered %d of the %d frames sent after %c's last give-up", to, after, want, 'a'+from)
		}
	}
}
