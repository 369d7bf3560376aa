package transport

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"
	"time"
)

// channel is the reliable protocol of one peer's channel, both
// directions. It is a pure state machine: it takes no lock, starts no
// goroutine, does no I/O and reads no clock. Every transition is a
// method given the time, returning what to write and what to deliver.
// Reliable drives one per peer under the peer's lock, writes after the
// unlock and sets one runtime timer to deadline(); tests drive two on a
// virtual clock. Datagrams come from dgramPool and are appended to the
// caller's out, since several goroutines drive one channel; receive's
// deliveries are the channel's scratch, valid until the next receive
// (Reliable has one receive goroutine).
type channel struct {
	cfg   Config
	stats *statCounters

	// Sender side. txHdr is the header of the last frame send built, in
	// a buffer reused across changes of header; ackedTo the highest
	// cumulative ack received; free the acknowledged frames send
	// reuses, at most Window; lastSent when send last sequenced a frame.
	nextSeq, ackedTo uint64
	txHdr            []byte
	unacked          map[uint64]*outPkt
	free             []*outPkt
	lastSent         time.Time

	// given holds the frames given up on above ackedTo, in seq order,
	// each with its header (and no payload): what the floor tells the
	// peer.
	given []frame

	// Loss recovery. srtt and rttvar are the RFC 6298 estimator over acks
	// of never-resent frames (zero until the first sample; rttBound while
	// they hold only an upper bound, which the first sample replaces) and
	// minRTT the smallest sample; backoff is the timer's exponent, kept
	// until the next sample; rackXmit is the latest transmit time of a
	// frame known to have arrived; retxDue is when the timer next looks
	// for a frame past its deadline, zero once nothing is in flight.
	srtt, rttvar, minRTT time.Duration
	rttBound             bool
	backoff              uint
	rackXmit, retxDue    time.Time

	// Frame coalescing: staged holds the first transmissions waiting for
	// an ack to release them, in seq order (its backing array is reused
	// across batches), and stage counts their encoded bytes. backlog
	// holds the frames send sequenced while the window was full, in seq
	// order, in unacked behind the staged frames and, like them, not yet
	// on the wire: loss detection and the timer pass them over.
	stage           int
	staged, backlog []*outPkt

	// Receiver side. rxHdr is the header of the last in-order frame that
	// carried one: a subslice of that frame's datagram, which this layer
	// owns and never writes. lastHeard is when a datagram carrying a
	// frame last arrived. ackPending counts in-order frames received
	// since the last ack, and ackDue is when the delayed ack leaves,
	// zero while none is set. deliv is receive's deliveries.
	expected          uint64
	ooo               map[uint64]frame
	rxHdr             []byte
	ackPending        int
	lastHeard, ackDue time.Time
	deliv             []frame
}

// newChannel returns a fresh channel; cfg has its defaults.
func newChannel(cfg Config, stats *statCounters) channel {
	return channel{cfg: cfg, stats: stats, nextSeq: 1, expected: 1,
		unacked: make(map[uint64]*outPkt), ooo: make(map[uint64]frame)}
}

// outPkt is an in-flight message awaiting acknowledgement.
type outPkt struct {
	seq      uint64
	frame    []byte    // the encoded frame, as every datagram carrying it holds it
	hdr      []byte    // the frame's header, inline in frame or not
	sent     time.Time // first transmission
	xmit     time.Time // latest transmission
	deadline time.Time // when the timer resends it: xmit plus the RTO then in force
	retries  int       // timer expiries so far; MaxRetries bounds these
	resent   bool      // retransmitted at least once, by the timer or an ack
}

// bySeq orders frames picked off the unacked map in send order.
func bySeq(a, b *outPkt) int { return cmp.Compare(a.seq, b.seq) }

// deadline is when the channel next needs tick: retxDue or ackDue,
// whichever is first; zero when neither is set.
func (c *channel) deadline() time.Time {
	if c.ackDue.IsZero() || !c.retxDue.IsZero() && c.retxDue.Before(c.ackDue) {
		return c.retxDue
	}
	return c.ackDue
}

// floor tells the peer of frames given up on: skip each seq below f not
// yet delivered, and take hdr, the run's last header, as the one on
// record at f-1. f ends the first run given up on; ok is false while
// none is unacknowledged, or a frame below the run is still held (the
// peer lacks it for now, not for good).
func (c *channel) floor() (f uint64, hdr []byte, ok bool) {
	if len(c.given) == 0 {
		return 0, nil, false
	}
	g := c.given[0].seq
	for q := c.ackedTo + 1; q < g; q++ {
		if _, held := c.unacked[q]; held {
			return 0, nil, false
		}
	}
	n := 1
	for n < len(c.given) && c.given[n].seq == g+uint64(n) {
		n++
	}
	return g + uint64(n), c.given[n-1].hdr, true
}

// datagram assembles one datagram: frames, in order, behind the
// acknowledgement for the reverse direction (cumulative, plus the
// selective bitmap while a gap is open) when ack is set or the peer is
// owed one. Without frames it is a bare ack. Every datagram the channel
// sends is built here.
func (c *channel) datagram(ack bool, frames []*outPkt) *[]byte {
	dgram := dgramPool.Get().(*[]byte)
	b := (*dgram)[:0]
	if ack || c.ackPending > 0 {
		// The ack the peer is owed leaves now; a delayed ack still due
		// finds ackPending == 0 and lapses.
		c.ackPending = 0
		if len(frames) > 0 {
			c.stats.acksPiggybacked.Add(1)
		} else {
			c.stats.acksSent.Add(1)
		}
		cum, sel, hasSel := c.ackState()
		b = appendHeader(b, true, cum, sel, hasSel)
	} else {
		b = appendHeader(b, false, 0, 0, false)
	}
	if f, hdr, ok := c.floor(); ok {
		b = appendFloor(b, f, hdr)
	}
	for _, pkt := range frames {
		b = append(b, pkt.frame...)
	}
	*dgram = b
	return dgram
}

// flush drains the stage into one datagram; the frames' clocks run from
// now, when they leave. ack puts an ack in even when none is owed.
func (c *channel) flush(now time.Time, ack bool) *[]byte {
	deadline := now.Add(c.rto())
	for _, pkt := range c.staged {
		pkt.xmit, pkt.deadline = now, deadline
	}
	dgram := c.datagram(ack, c.staged)
	clear(c.staged) // acknowledged frames must not stay reachable from the backing array
	c.staged = c.staged[:0]
	c.stage = 0
	return dgram
}

// resend appends the datagrams that retransmit frames, in seq order,
// packed as a stage is; fast marks frames an acknowledgement condemned.
func (c *channel) resend(out []*[]byte, frames []*outPkt, fast bool) []*[]byte {
	c.stats.retransmits.Add(uint64(len(frames)))
	if fast {
		c.stats.fastRetransmits.Add(uint64(len(frames)))
	}
	for len(frames) > 0 {
		n, size := 1, len(frames[0].frame)
		for n < len(frames) && size+len(frames[n].frame) <= datagramBudget {
			size += len(frames[n].frame)
			n++
		}
		out = append(out, c.datagram(false, frames[:n]))
		frames = frames[n:]
	}
	return out
}

// send sequences hdr, payload and puts its frame on its way (Reliable.Send
// has the rules), appending to out the datagrams to write. Past the
// backlog's bound, unless owed, it refuses with ErrBacklog instead.
func (c *channel) send(out []*[]byte, now time.Time, hdr, payload []byte, owed bool) ([]*[]byte, error) {
	full := len(c.backlog) > 0 || len(c.unacked) >= c.cfg.Window
	if full && !owed && len(c.backlog) >= backlogWindows*c.cfg.Window {
		c.stats.backlogFull.Add(1)
		return out, ErrBacklog
	}
	seq := c.nextSeq
	c.nextSeq++
	inline := !bytes.Equal(hdr, c.txHdr)
	if inline {
		c.txHdr = append(c.txHdr[:0], hdr...)
	}
	pkt := c.newPkt(seq, hdr, inline, payload)
	c.unacked[seq] = pkt
	c.stats.dataSent.Add(1)
	c.lastSent = now
	if full {
		pkt.sent, pkt.xmit = now, now // restamped as it enters the window
		c.backlog = append(c.backlog, pkt)
		if len(c.staged) > 0 { // they hold window slots only their acks can free
			out = append(out, c.flush(now, false))
			c.stats.flushWindow.Add(1)
		}
		return out, nil
	}
	return c.place(out, pkt, now), nil
}

// place puts pkt, entering the window at now, on its way: staged, or
// alone, after any stage it would push past the budget.
func (c *channel) place(out []*[]byte, pkt *outPkt, now time.Time) []*[]byte {
	pkt.sent, pkt.xmit, pkt.deadline = now, now, now.Add(c.rto())
	size := len(pkt.frame)
	if c.stage > 0 && c.stage+size > datagramBudget {
		// The frame would take the batch past the budget: what is staged
		// leaves first.
		out = append(out, c.flush(now, false))
		c.stats.flushSize.Add(1)
	}
	inFlight := len(c.unacked) - len(c.staged) - len(c.backlog) - 1 // transmitted and unacknowledged
	if c.retxDue.IsZero() || pkt.deadline.Before(c.retxDue) {
		c.retxDue = pkt.deadline
	}
	if c.stage > 0 || 2*size <= datagramBudget && inFlight >= ackEvery {
		c.stage += size
		c.staged = append(c.staged, pkt)
		if c.stage+size > datagramBudget {
			// No room for another frame like this one.
			out = append(out, c.flush(now, false))
			c.stats.flushSize.Add(1)
		}
		return out
	}
	return append(out, c.datagram(false, []*outPkt{pkt})) // alone
}

// admit moves backlogged frames into the window while it has room,
// each placed as send places a frame.
func (c *channel) admit(out []*[]byte, now time.Time) []*[]byte {
	for len(c.backlog) > 0 && len(c.unacked)-len(c.backlog) < c.cfg.Window {
		pkt := c.backlog[0]
		c.backlog[0] = nil // an admitted frame must not stay reachable from the backing array
		c.backlog = c.backlog[1:]
		out = c.place(out, pkt, now)
	}
	return out
}

// rto is the retransmission timeout now in force: Config.RTO until the
// first round-trip sample, then the measured SRTT + 4*RTTVAR plus the
// AckDelay the peer may sit on an ack (never below Config.RTO/2: acks
// do the recovering, the timer can afford to be late), doubled per
// timer expiry since the last sample up to 8x.
func (c *channel) rto() time.Duration {
	base := c.cfg.RTO
	if c.srtt > 0 {
		base = max(c.srtt+max(4*c.rttvar, minRTOVar)+c.cfg.AckDelay, c.cfg.RTO/2)
	}
	return base << c.backoff
}

// sampleRTT folds one round-trip measurement into the estimator (RFC
// 6298 §2) and ends the timer back-off: the path has just shown what it
// takes. bound marks an upper bound rather than a measurement; it
// stands in only until the first measurement.
func (c *channel) sampleRTT(rtt time.Duration, bound bool) {
	rtt = max(rtt, 1) // zero srtt means "nothing yet"
	if c.srtt == 0 || c.rttBound {
		c.srtt, c.rttvar = rtt, rtt/2
	} else {
		c.rttvar += ((c.srtt - rtt).Abs() - c.rttvar) / 4
		c.srtt += (rtt - c.srtt) / 8 // stays positive: the step is under srtt/8
	}
	c.rttBound = bound
	if !bound && (c.minRTT == 0 || rtt < c.minRTT) {
		c.minRTT = rtt
	}
	c.backoff = 0
}

// release drops an acknowledged or failed seq from the unacked set,
// moves it to the free list for send to reuse (at most Window, keeping
// no oversized buffer), and returns whichever of it and newest was
// transmitted later, readable until the transition returns. Only a
// frame that has left can be acknowledged (applyAck clamps a confused
// peer's ack) or fail, so none still staged is recycled.
func (c *channel) release(seq uint64, newest *outPkt) *outPkt {
	pkt, ok := c.unacked[seq]
	if !ok {
		return newest
	}
	delete(c.unacked, seq)
	if len(c.free) < c.cfg.Window {
		if cap(pkt.frame) > datagramBudget || cap(pkt.hdr) > datagramBudget {
			pkt.frame, pkt.hdr = nil, nil
		}
		c.free = append(c.free, pkt)
	}
	if newest == nil || pkt.xmit.After(newest.xmit) {
		return pkt
	}
	return newest
}

// newPkt returns an outPkt holding the frame for seq, hdr and payload,
// with hdr inline or not, and its own copy of hdr: an acknowledged one
// from the free list when there is one, keeping its buffers if they fit.
// The caller sets its times. Fields are assigned one by one: a
// composite literal of the whole struct is built and then copied, which
// costs more than the assignments.
func (c *channel) newPkt(seq uint64, hdr []byte, inline bool, payload []byte) *outPkt {
	var pkt *outPkt
	if n := len(c.free); n > 0 {
		pkt = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		pkt = new(outPkt)
	}
	frame := pkt.frame[:0]
	if need := frameLen(seq, hdr, inline, payload); cap(frame) < need {
		frame = make([]byte, 0, need)
	}
	pkt.seq, pkt.retries, pkt.resent = seq, 0, false
	pkt.frame = appendFrame(frame, seq, hdr, inline, payload)
	pkt.hdr = append(pkt.hdr[:0], hdr...)
	return pkt
}

// receive takes one arriving datagram, which it owns and never writes:
// its ack, its floor, then each frame in order. It returns the frames
// to deliver, aliasing dgram, and appends the datagrams to write.
func (c *channel) receive(out []*[]byte, now time.Time, dgram []byte) ([]frame, []*[]byte) {
	clear(c.deliv) // the last datagram's frames must not stay reachable
	c.deliv = c.deliv[:0]
	h, off, ok := parseHeader(dgram)
	if !ok {
		return nil, out
	}
	if h.hasCum {
		out = c.applyAck(out, h.cum, h.sel, h.hasSel, now)
	}
	// A floor taken, an out-of-order or duplicate frame, or ackEvery
	// in-order ones owe the peer an ack at once: one for the datagram.
	ackNow := h.floor > 0
	if ackNow {
		c.skip(h.floor, h.floorHdr)
	}
	for f, next, ok := nextFrame(dgram, off); ok; f, next, ok = nextFrame(dgram, next) {
		ackNow = c.data(f, now) || ackNow
	}
	if ackNow {
		out = c.ackAtOnce(out, now)
	}
	return c.deliv, out
}

// applyAck releases window space for an acknowledgement, however it
// arrived, feeds the round-trip estimator, resends at once what the
// acknowledgement shows to be lost, and — the ack clock — sends what was
// staged or backlogged waiting for it.
func (c *channel) applyAck(out []*[]byte, cum uint64, sel uint64, hasSel bool, now time.Time) []*[]byte {
	// Seqs past top, staged or backlogged, have never left: an ack or a
	// bitmap bit (bit i names seq cum+selBase+i) naming one is garbage.
	top := c.nextSeq - 1 - uint64(len(c.staged)+len(c.backlog))
	cum = min(cum, top)
	if sent := top - cum; !hasSel || sent == 0 {
		sel = 0
	} else {
		sel &= 1<<(sent-1) - 1
	}
	var newest *outPkt // the latest-transmitted frame this ack newly covers
	for q := c.ackedTo + 1; q <= cum; q++ {
		newest = c.release(q, newest)
	}
	if cum > c.ackedTo {
		c.ackedTo = cum
	}
	if len(c.given) > 0 { // the peer has moved past these
		for len(c.given) > 0 && c.given[0].seq <= c.ackedTo {
			c.given = c.given[1:]
		}
		if len(c.given) == 0 {
			c.given = nil
		}
	}
	for b := sel; b != 0; b &= b - 1 {
		newest = c.release(cum+selBase+uint64(bits.TrailingZeros64(b)), newest)
	}
	if newest != nil {
		rtt := now.Sub(newest.xmit)
		switch {
		case !newest.resent:
			c.sampleRTT(rtt, false)
		case c.srtt == 0:
			// Karn: which copy this ack answers is unknown, so it is no
			// sample. But on a path slower than the back-off can reach
			// every frame is resent before its ack and none ever is; the
			// time since the first copy left is at least a bound.
			c.sampleRTT(now.Sub(newest.sent), true)
		}
		// An ack sooner than the smallest round trip after a resend
		// answers the earlier copy and says nothing about frames sent
		// between the two.
		if (!newest.resent || c.minRTT > 0 && rtt >= c.minRTT) && newest.xmit.After(c.rackXmit) {
			c.rackXmit = newest.xmit
		}
	}
	if sel != 0 || newest != nil && newest.resent {
		// Only an ack that names seqs above a hole, or covers a resent
		// frame, can put an unacked frame before something that arrived.
		out = c.resend(out, c.detectLoss(cum, sel, hasSel, now), true)
	}
	if newest != nil && len(c.staged) > 0 {
		out = append(out, c.flush(now, false))
		c.stats.flushAck.Add(1)
	}
	return c.admit(out, now) // into a fresh stage, for the next ack to release
}

// detectLoss decides which unacked frames an acknowledgement shows to be
// lost, stamps them retransmitted at now and returns them in seq order
// for the caller to resend. A never-resent frame is lost once dupThresh
// seqs above it have arrived; any frame is lost once it was transmitted
// more than a reordering window (SRTT/4) before a frame known to have
// arrived (RACK, RFC 8985) — the rule that recovers a lost
// retransmission.
func (c *channel) detectLoss(cum, sel uint64, hasSel bool, now time.Time) []*outPkt {
	// The ack speaks only for seqs below known: not for frames still
	// staged or backlogged, which have yet to leave, nor, when it carries
	// a bitmap, for seqs past the bitmap's reach (without one the peer
	// holds nothing above cum).
	known := c.nextSeq - uint64(len(c.staged)+len(c.backlog))
	if hasSel {
		known = min(known, cum+selBase+64)
	}
	reorder := c.srtt / 4
	var lost []*outPkt
	for q, pkt := range c.unacked {
		if q >= known {
			continue
		}
		if !pkt.resent && bits.OnesCount64(sel>>(q-cum-1)) >= dupThresh ||
			pkt.xmit.Add(reorder).Before(c.rackXmit) {
			lost = append(lost, pkt)
		}
	}
	slices.SortFunc(lost, bySeq)
	rto := c.rto()
	for _, pkt := range lost {
		pkt.xmit, pkt.deadline, pkt.resent = now, now.Add(rto), true
	}
	return lost
}

// ackState is what an acknowledgement sent now says: the cumulative
// point and, while the reorder buffer holds anything, its bitmap (a seq
// more than 64 past the hole goes unreported).
func (c *channel) ackState() (cum, sel uint64, hasSel bool) {
	if len(c.ooo) == 0 {
		return c.expected - 1, 0, false
	}
	for seq := range c.ooo {
		if i := seq - c.expected - 1; i < 64 {
			sel |= 1 << i
		}
	}
	return c.expected - 1, sel, len(c.ooo) > 0
}

// data sequences one arriving data frame. In-order arrivals are
// delivered at once and acked after ackEvery of them or AckDelay;
// out-of-order and duplicate ones are acked at once (data reports an
// ack owed now). A frame that left its header out takes it when it
// becomes in-order: both ends move the header on record in seq order.
// now stamps lastHeard.
func (c *channel) data(f frame, now time.Time) (ackNow bool) {
	c.lastHeard = now
	switch {
	case f.seq < c.expected:
		// Retransmission of something already delivered: the previous ack
		// was likely lost, so re-ack immediately.
		c.stats.dupsDropped.Add(1)
		return true
	case f.seq == c.expected:
		// In-order: deliver this message and any run it completes.
		c.inOrder(f)
		n := 1 + c.run()
		c.stats.delivered.Add(uint64(n))
		c.ackPending += n
		if c.ackPending >= ackEvery {
			return true
		}
		if c.ackDue.IsZero() {
			c.ackDue = now.Add(c.cfg.AckDelay)
		}
		return false
	default: // seq > expected
		if _, dup := c.ooo[f.seq]; dup {
			c.stats.dupsDropped.Add(1)
		} else {
			c.ooo[f.seq] = f
		}
		// A gap is open: ack immediately, so the sender retransmits only
		// the hole.
		return true
	}
}

// ackAtOnce sends the peer its ack now, with the staged frames, flushed,
// rather than bare.
func (c *channel) ackAtOnce(out []*[]byte, now time.Time) []*[]byte {
	if len(c.staged) > 0 {
		c.stats.flushAck.Add(1)
		return append(out, c.flush(now, true))
	}
	return append(out, c.datagram(true, nil))
}

// run delivers the frames the reorder buffer holds from expected on, in
// order, and returns how many.
func (c *channel) run() int {
	n := 0
	for len(c.ooo) > 0 {
		f, ok := c.ooo[c.expected]
		if !ok {
			break
		}
		delete(c.ooo, c.expected)
		c.inOrder(f)
		n++
	}
	return n
}

// skip takes a floor from the peer (see floor): it skips the seqs below
// it not yet delivered, counted and dropped from the reorder buffer, and
// delivers the run from the floor on. A late copy of a skipped frame is
// a duplicate. The peer is acked at once, so that it stops telling.
func (c *channel) skip(floor uint64, hdr []byte) {
	if floor > c.expected {
		c.stats.skipped.Add(floor - c.expected)
		for seq := range c.ooo {
			if seq < floor {
				delete(c.ooo, seq)
			}
		}
		c.expected, c.rxHdr = floor, hdr
		c.stats.delivered.Add(uint64(c.run()))
	}
}

// inOrder delivers f, the next frame in order, resolving its header: its
// own when inline, which becomes the one on record, and otherwise the
// one on record.
func (c *channel) inOrder(f frame) {
	if f.inline {
		c.rxHdr = f.hdr
	} else {
		f.hdr = c.rxHdr
	}
	c.expected++
	c.deliv = append(c.deliv, f)
}

// tick runs the channel's timers at now: the delayed ack, and the
// retransmission timer (expire).
func (c *channel) tick(out []*[]byte, now time.Time) []*[]byte {
	if !c.ackDue.IsZero() && !c.ackDue.After(now) {
		c.ackDue = time.Time{}
		if c.ackPending > 0 {
			out = append(out, c.datagram(true, nil))
		}
	}
	if !c.retxDue.IsZero() && !c.retxDue.After(now) {
		out = c.expire(out, now)
	}
	return out
}

// expire is the retransmission timer: the backstop for staged frames
// whose ack is overdue, a resend of every frame past its deadline, the
// failure of those out of retries (counted, given to the floor and
// recycled) and the admission of backlogged frames to the window they
// free. While frames given up on are unacknowledged each expiry also
// sends the floor alone, backed off like a resend, so that it reaches a
// peer no other datagram goes to.
func (c *channel) expire(out []*[]byte, now time.Time) []*[]byte {
	var expired []*outPkt
	var failed int
	var next time.Time // earliest deadline still ahead
	var dgram *[]byte
	backlogged := c.nextSeq - uint64(len(c.backlog)) // seqs from here have no deadline yet
	if len(c.staged) > 0 {
		for seq, pkt := range c.unacked {
			if seq < backlogged && !pkt.deadline.After(now) {
				// The backstop: an ack the staged frames were waiting
				// for is overdue. They leave now, in their batch, with
				// a fresh deadline — none has been on the wire, so none
				// is resent below.
				dgram = c.flush(now, false)
				c.stats.flushBackstop.Add(1)
				break
			}
		}
	}
	for seq, pkt := range c.unacked {
		switch {
		case seq >= backlogged:
		case pkt.deadline.After(now):
			if next.IsZero() || pkt.deadline.Before(next) {
				next = pkt.deadline
			}
		case pkt.retries >= c.cfg.MaxRetries:
			c.given = append(c.given, frame{seq: seq, hdr: pkt.hdr})
			pkt.hdr = nil // the floor keeps it
			c.release(seq, nil)
			failed++
		default:
			expired = append(expired, pkt)
		}
	}
	if failed > 0 {
		c.stats.failures.Add(uint64(failed))
		slices.SortFunc(c.given, func(a, b frame) int { return cmp.Compare(a.seq, b.seq) })
	}
	if len(expired) > 0 {
		// One expiry, one step of back-off, however many frames it
		// caught; it stays until an ack yields a round-trip sample.
		c.backoff = min(c.backoff+1, maxBackoff)
		rto := c.rto()
		slices.SortFunc(expired, bySeq)
		for _, pkt := range expired {
			pkt.retries++
			pkt.xmit, pkt.deadline, pkt.resent = now, now.Add(rto), true
		}
		if next.IsZero() || expired[0].deadline.Before(next) {
			next = expired[0].deadline
		}
		out = c.resend(out, expired, false)
	}
	if len(c.given) > 0 {
		if _, _, ok := c.floor(); ok {
			out = append(out, c.datagram(false, nil))
			if len(expired) == 0 {
				c.backoff = min(c.backoff+1, maxBackoff)
			}
		}
		if d := now.Add(c.rto()); next.IsZero() || d.Before(next) {
			next = d
		}
	}
	c.retxDue = next // zero once nothing is in flight or given up on
	if failed > 0 {
		out = c.admit(out, now) // place arms retxDue for them
	}
	if dgram != nil {
		out = append(out, dgram)
	}
	return out
}
