package transport

import (
	"bytes"
	"cmp"
	"errors"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
)

// selBase is the distance from the cumulative ack to the seq that bit 0
// of a selective bitmap names (cum+1 is missing by definition).
const selBase = 2

// ackEvery is the number of in-order messages from a peer that forces an
// immediate cumulative acknowledgement. Out-of-order, duplicate and
// retransmitted arrivals are always acknowledged immediately. It is also
// the sender's coalescing clock: with this many transmitted frames
// unacknowledged the peer's immediate ack is on its way, so further small
// frames are staged for it to release (see Send). Both ends of a channel
// must share it, which is why it is not configurable.
const ackEvery = 8

// Loss-recovery constants; DESIGN.md "Loss recovery" gives the reasons.
const (
	// dupThresh is how many received seqs above a never-resent frame show
	// it lost rather than reordered (netsim displaces by one datagram).
	dupThresh = 3
	// maxBackoff caps the timer back-off at 8x the current RTO base.
	maxBackoff = 3
	// minRTOVar is the least the RTO allows for round-trip variance.
	minRTOVar = time.Millisecond
)

// backlogWindows bounds a peer's backlog, in windows.
const backlogWindows = 8

// ErrBacklog reports that Send refused a message, sequencing nothing:
// the peer's window is full and backlogWindows windows wait behind it.
var ErrBacklog = errors.New("transport: send backlog full")

// ErrTooManyRetries reports that a message exhausted its retransmissions;
// this is the paper's "if a message is not delivered within a specified
// time an exception is raised" (§3.2).
var ErrTooManyRetries = errors.New("transport: message not acknowledged after max retries")

// Config tunes the reliable layer. Zero values select defaults.
type Config struct {
	// RTO is the retransmission timeout until the first round-trip sample
	// from a peer (default 50ms); from then on the timeout is measured per
	// peer (SRTT + 4*RTTVAR + AckDelay) and never below RTO/2. The timer
	// is the backstop: acknowledgements reveal most losses within a round
	// trip. It backs off exponentially per expiry, capped at 8x, until an
	// acknowledgement yields a new sample.
	RTO time.Duration
	// MaxRetries is the number of timer expiries a frame survives before
	// its send is declared failed (default 10).
	MaxRetries int
	// Window is the maximum number of unacknowledged messages per peer
	// (default 64); Send backlogs a frame past it, AwaitWindow waits.
	Window int
	// AckDelay bounds how long a cumulative acknowledgement may be
	// withheld waiting to coalesce with later ones (default RTO/8). An
	// ack is sent after 8 in-order messages or AckDelay, whichever first.
	AckDelay time.Duration
	// FailureBuf is the capacity of the asynchronous failure channel
	// (default 64); failures beyond an unread buffer are dropped. Swarm
	// members shrink it — the preallocated channel is pure per-dapplet
	// memory for endpoints that rarely fail.
	FailureBuf int
}

func (c Config) withDefaults() Config {
	if c.RTO <= 0 {
		c.RTO = 50 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.AckDelay <= 0 {
		c.AckDelay = c.RTO / 8
	}
	if c.FailureBuf <= 0 {
		c.FailureBuf = 64
	}
	return c
}

// SendFailure describes a message that could not be delivered: the
// header and payload it was sent with, whether or not its frame carried
// the header. Hdr and Payload are the failed frame's own buffers, which
// the layer never reuses.
type SendFailure struct {
	To      netsim.Addr
	Seq     uint64
	Hdr     []byte
	Payload []byte
	Err     error
}

// Stats counts reliable-layer events.
type Stats struct {
	DataSent        uint64 // frames sequenced for a first transmission (coalesced, backlogged or not)
	Retransmits     uint64 // all retransmissions, ack-triggered and timer
	FastRetransmits uint64 // the share of Retransmits an acknowledgement triggered
	AcksSent        uint64 // bare acks: datagrams carrying an ack and no frame (cumulative: usually fewer than messages)
	AcksRecv        uint64 // ack-carrying datagrams received
	DupsDropped     uint64 // duplicate data frames discarded
	Delivered       uint64 // messages handed to the delivery sink in order
	Failures        uint64
	FailuresDropped uint64 // failure notices discarded because the Failures channel was full
	BacklogFull     uint64 // sends refused with ErrBacklog

	// Physical writes.
	BytesOut        uint64 // bytes across all physical datagrams written
	DatagramsOut    uint64 // physical datagrams written
	AcksPiggybacked uint64 // acks that rode a datagram carrying frames instead of a bare ack

	// Flush reasons: why each batch of staged frames left the stage (a
	// lone frame was never staged, and counts under none). FlushSize:
	// the next frame would not fit the datagram budget, or no further
	// frame of its size would; FlushAck: an arriving ack freed window
	// space, or the receive path owed the peer an ack and the staged
	// frames carried it; FlushWindow: the window filled; FlushBackstop: the
	// retransmission timer came due — the only release that waits on a
	// clock, and zero on a healthy path.
	FlushSize     uint64
	FlushAck      uint64
	FlushWindow   uint64
	FlushBackstop uint64

	// IO is the underlying socket's syscall-level activity, when the
	// PacketConn tracks it (the UDP transport does; netsim makes no
	// syscalls and reports zeros).
	IO IOStats
}

// statCounters is the lock-free internal form of Stats: counters are
// atomics so the per-peer locks never serialize on shared accounting.
type statCounters struct {
	dataSent        atomic.Uint64
	retransmits     atomic.Uint64
	fastRetransmits atomic.Uint64
	acksSent        atomic.Uint64
	acksRecv        atomic.Uint64
	dupsDropped     atomic.Uint64
	delivered       atomic.Uint64
	failures        atomic.Uint64
	failuresDropped atomic.Uint64
	backlogFull     atomic.Uint64

	bytesOut        atomic.Uint64
	datagramsOut    atomic.Uint64
	acksPiggybacked atomic.Uint64

	flushSize     atomic.Uint64
	flushAck      atomic.Uint64
	flushWindow   atomic.Uint64
	flushBackstop atomic.Uint64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		DataSent:        c.dataSent.Load(),
		Retransmits:     c.retransmits.Load(),
		FastRetransmits: c.fastRetransmits.Load(),
		AcksSent:        c.acksSent.Load(),
		AcksRecv:        c.acksRecv.Load(),
		DupsDropped:     c.dupsDropped.Load(),
		Delivered:       c.delivered.Load(),
		Failures:        c.failures.Load(),
		FailuresDropped: c.failuresDropped.Load(),
		BacklogFull:     c.backlogFull.Load(),

		BytesOut:        c.bytesOut.Load(),
		DatagramsOut:    c.datagramsOut.Load(),
		AcksPiggybacked: c.acksPiggybacked.Load(),

		FlushSize:     c.flushSize.Load(),
		FlushAck:      c.flushAck.Load(),
		FlushWindow:   c.flushWindow.Load(),
		FlushBackstop: c.flushBackstop.Load(),
	}
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

// sortBySeq puts frames picked off the unacked map back in send order.
func sortBySeq(pkts []*outPkt) {
	slices.SortFunc(pkts, func(a, b *outPkt) int { return cmp.Compare(a.seq, b.seq) })
}

// markResent stamps one more transmission of pkt at now.
func (pkt *outPkt) markResent(now time.Time, rto time.Duration) {
	pkt.xmit, pkt.deadline, pkt.resent = now, now.Add(rto), true
}

// peerState holds one peer's sequencing state in both directions, guarded
// by its own mutex: traffic to or from distinct peers never shares a lock.
type peerState struct {
	addr netsim.Addr

	mu     sync.Mutex
	cond   *sync.Cond // broadcast when window space frees or the layer closes
	closed bool       // guarded by mu

	// Sender side. txHdr is the header of the last frame Send built, in a
	// buffer reused across changes of header.
	nextSeq uint64             // guarded by mu
	txHdr   []byte             // guarded by mu
	ackedTo uint64             // guarded by mu; highest cumulative ack received
	unacked map[uint64]*outPkt // guarded by mu
	free    []*outPkt          // guarded by mu; acknowledged frames Send reuses, at most Window
	// reserved counts the places Reserve claimed that SendReserved has
	// not spent; they count against the backlog's bound.
	reserved int // guarded by mu
	// lastSent is when send last sequenced a frame to the peer.
	lastSent time.Time // guarded by mu

	// Loss recovery. srtt and rttvar are the RFC 6298 estimator over acks
	// of never-resent frames (zero until the first sample; rttBound while
	// they hold only an upper bound, which the first sample replaces) and
	// minRTT the smallest sample; backoff is the timer's exponent, kept
	// until the next sample; rackXmit is the latest transmit time of a
	// frame known to have arrived; retx is the retransmission timer,
	// created on first use, and retxDue when it is set to fire, zero once
	// it has fired with nothing left in flight.
	srtt     time.Duration // guarded by mu
	rttvar   time.Duration // guarded by mu
	rttBound bool          // guarded by mu
	minRTT   time.Duration // guarded by mu
	backoff  uint          // guarded by mu
	rackXmit time.Time     // guarded by mu
	retx     *time.Timer   // guarded by mu
	retxDue  time.Time     // guarded by mu

	// Receiver side. rxHdr is the header of the last in-order frame that
	// carried one: a subslice of that frame's datagram, which this layer
	// owns and never writes.
	expected uint64           // guarded by mu
	ooo      map[uint64]frame // guarded by mu
	rxHdr    []byte           // guarded by mu
	// delivered counts the frames the sink has returned from, written
	// by the receive goroutine alone.
	delivered atomic.Uint64

	// Delayed-ack coalescing: ackPending counts in-order messages
	// received since the last ack; ackTimerSet records that ackTimer is
	// set to fire.
	ackPending  int         // guarded by mu
	ackTimerSet bool        // guarded by mu
	ackTimer    *time.Timer // guarded by mu

	// Frame coalescing: staged holds the first transmissions waiting for
	// an ack to release them, in seq order (its backing array is reused
	// across batches), and stage counts their encoded bytes.
	stage  int       // guarded by mu
	staged []*outPkt // guarded by mu

	// backlog holds the frames Send sequenced while the window was full,
	// in seq order, in unacked behind the staged frames and, like them,
	// not yet on the wire: loss detection and the timer pass them over.
	backlog []*outPkt // guarded by mu
}

func newPeerState(addr netsim.Addr, closed bool) *peerState {
	p := &peerState{
		addr:     addr,
		closed:   closed,
		nextSeq:  1,
		unacked:  make(map[uint64]*outPkt),
		expected: 1,
		ooo:      make(map[uint64]frame),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Reliable implements per-peer FIFO, exactly-once message delivery over an
// unreliable PacketConn, using sequence numbers, cumulative+selective
// acknowledgements, ack-clocked loss detection and a measured, bounded
// exponential-backoff retransmission timer behind it.
// Messages between a pair of endpoints are delivered in the order sent
// (§3.2: "Messages sent along a channel are delivered in the order sent").
//
// The layer is sharded by peer: each peer's window, unacked set and
// reordering buffer live under that peer's own mutex (the table itself is
// a sync.Map), so concurrent senders to different peers never contend.
type Reliable struct {
	pc  PacketConn
	cfg Config

	peers   sync.Map   // netsim.Addr -> *peerState
	peersMu sync.Mutex // serializes peer creation against Close
	closedB bool       // guarded by peersMu

	stats statCounters

	deliver  func(hdr, payload []byte, from netsim.Addr)
	failures chan SendFailure

	closeOnce sync.Once
	wg        sync.WaitGroup // the receive loop and running timer callbacks
}

// NewReliable layers reliable ordered delivery over pc and starts its
// receive goroutine. Timers are the runtime's: each peer has at most a
// retransmission timer and a delayed-ack timer, and neither holds a
// goroutine while it waits.
//
// The receive goroutine calls deliver once per message, in each peer's
// send order, handing over the header and payload Send was given. Both
// slices alias the arriving datagram; deliver may keep them but must not
// write to them, since the same header bytes are handed again for the
// frames after it that did not repeat them. deliver must not wait on the
// network — not on AwaitWindow, a reply, or a lock held across either:
// the acknowledgement or reply that would end the wait is read by the
// very goroutine it holds up. Send never waits, so deliver may send.
// Close waits for a call in progress.
func NewReliable(pc PacketConn, cfg Config, deliver func(hdr, payload []byte, from netsim.Addr)) *Reliable {
	r := &Reliable{
		pc:       pc,
		cfg:      cfg.withDefaults(),
		deliver:  deliver,
		failures: make(chan SendFailure, cfg.withDefaults().FailureBuf),
	}
	r.wg.Add(1)
	go r.recvLoop()
	return r
}

// LocalAddr returns the underlying socket address.
func (r *Reliable) LocalAddr() netsim.Addr { return r.pc.LocalAddr() }

// Failures exposes asynchronous delivery failures (the paper's send
// exceptions). The channel is buffered; unread failures beyond the buffer
// are dropped.
func (r *Reliable) Failures() <-chan SendFailure { return r.failures }

// Stats returns a snapshot of the layer's counters, including the
// underlying socket's syscall counters when the transport tracks them.
func (r *Reliable) Stats() Stats {
	s := r.stats.snapshot()
	if io, ok := IOStatsOf(r.pc); ok {
		s.IO = io
	}
	return s
}

// QueueDepth returns the number of frames this endpoint is currently
// holding for transmission across all peers: unacknowledged packets,
// backlogged ones included, plus staged (coalesced, not yet written)
// frames. It is a sender-side load signal; a broadcast hot spot shows up
// as one node's depth growing with group size.
func (r *Reliable) QueueDepth() int {
	total := 0
	r.peers.Range(func(_, v any) bool {
		p := v.(*peerState)
		p.mu.Lock()
		total += len(p.unacked) + len(p.staged)
		p.mu.Unlock()
		return true
	})
	return total
}

// RTT reports the smoothed round-trip time to a peer and the
// retransmission timeout now in force for it, back-off included. Until
// an acknowledgement from the peer has yielded a sample ok is false, srtt
// zero and rto derives from Config.RTO.
func (r *Reliable) RTT(to netsim.Addr) (srtt, rto time.Duration, ok bool) {
	v, found := r.peers.Load(to)
	if !found {
		return 0, r.cfg.RTO, false
	}
	p := v.(*peerState)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.srtt, r.rtoLocked(p), p.srtt > 0
}

// LastSent reports when the last data frame to the peer was sequenced:
// a first transmission Send took, backlogged or not. Bare acks,
// retransmissions and refused sends leave it; it is zero until a frame
// has been sequenced.
func (r *Reliable) LastSent(to netsim.Addr) time.Time {
	v, ok := r.peers.Load(to)
	if !ok {
		return time.Time{}
	}
	p := v.(*peerState)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSent
}

// Counts reports the peer's channel in both directions: the data frames
// sequenced to it, and the in-order frames from it that the sink has
// returned from (a frame is not counted while its delivery runs).
// Every frame counts, whatever it carries; the sequence numbers are the
// channel's FIFO positions, so a sender's count at any instant is
// where the receiver's count will stand once everything before it has
// arrived.
func (r *Reliable) Counts(peer netsim.Addr) (sequenced, delivered uint64) {
	v, ok := r.peers.Load(peer)
	if !ok {
		return 0, 0
	}
	p := v.(*peerState)
	p.mu.Lock()
	sequenced = p.nextSeq - 1
	p.mu.Unlock()
	return sequenced, p.delivered.Load()
}

// peer returns the state for a peer, creating it on first contact. The
// fast path is a lock-free sync.Map load; creation synchronizes with
// Close through peersMu so a peer can never miss the close broadcast.
func (r *Reliable) peer(a netsim.Addr) *peerState {
	if v, ok := r.peers.Load(a); ok {
		return v.(*peerState)
	}
	r.peersMu.Lock()
	defer r.peersMu.Unlock()
	if v, ok := r.peers.Load(a); ok {
		return v.(*peerState)
	}
	p := newPeerState(a, r.closedB)
	r.peers.Store(a, p)
	return p
}

// dgramPool recycles the buffers datagrams are assembled in.
// PacketConn.WriteTo copies before it returns, so a buffer goes back as
// soon as it is written and no send allocates one.
var dgramPool = sync.Pool{New: func() any {
	b := make([]byte, 0, dgramHdrMax+datagramBudget)
	return &b
}}

// datagramLocked assembles one datagram to p: frames, in order, behind
// the acknowledgement for the reverse direction (cumulative, plus the
// selective bitmap while a gap is open) when ack is set or the peer is
// owed one. Without frames it is a bare ack. Every datagram the layer
// sends is built here and written by write. Caller holds p.mu.
func (r *Reliable) datagramLocked(p *peerState, ack bool, frames []*outPkt) *[]byte {
	dgram := dgramPool.Get().(*[]byte)
	b := (*dgram)[:0]
	if ack || p.ackPending > 0 {
		// The ack the peer is owed leaves now; a delayed-ack timer still
		// set finds ackPending == 0 and lapses.
		p.ackPending = 0
		if len(frames) > 0 {
			r.stats.acksPiggybacked.Add(1)
		} else {
			r.stats.acksSent.Add(1)
		}
		cum, sel, hasSel := p.ackStateLocked()
		b = appendHeader(b, true, cum, sel, hasSel)
	} else {
		b = appendHeader(b, false, 0, 0, false)
	}
	for _, pkt := range frames {
		b = append(b, pkt.frame...)
	}
	*dgram = b
	return dgram
}

// write sends one datagram datagramLocked built, counting the physical
// write, and recycles its buffer. A nil dgram is no datagram. Must not be
// called with a peer lock held.
func (r *Reliable) write(to netsim.Addr, dgram *[]byte) error {
	if dgram == nil {
		return nil
	}
	r.stats.datagramsOut.Add(1)
	r.stats.bytesOut.Add(uint64(len(*dgram)))
	err := r.pc.WriteTo(to, *dgram)
	if cap(*dgram) <= dgramHdrMax+datagramBudget { // an oversized frame's buffer is not kept
		dgramPool.Put(dgram)
	}
	return err
}

// stageLocked appends pkt, a first transmission, to p's stage. Caller
// holds p.mu.
func (p *peerState) stageLocked(pkt *outPkt) {
	p.stage += len(pkt.frame)
	p.staged = append(p.staged, pkt)
}

// flushLocked drains p's stage into one datagram for write. The frames'
// round-trip clock and retransmission deadline run from now, when they
// leave, not from their Send. ack puts an acknowledgement in the datagram
// even when none is owed: the receive path's immediate one. Caller holds
// p.mu.
func (r *Reliable) flushLocked(p *peerState, now time.Time, ack bool) *[]byte {
	deadline := now.Add(r.rtoLocked(p))
	for _, pkt := range p.staged {
		pkt.xmit, pkt.deadline = now, deadline
	}
	dgram := r.datagramLocked(p, ack, p.staged)
	clear(p.staged) // acknowledged frames must not stay reachable from the backing array
	p.staged = p.staged[:0]
	p.stage = 0
	return dgram
}

// resendLocked appends to out the datagrams that retransmit frames, which
// are in seq order: packed up to datagramBudget, the first carrying any
// ack the peer is owed. A frame larger than the budget goes alone. fast
// marks frames an acknowledgement condemned. Caller holds p.mu.
func (r *Reliable) resendLocked(out []*[]byte, p *peerState, frames []*outPkt, fast bool) []*[]byte {
	r.stats.retransmits.Add(uint64(len(frames)))
	if fast {
		r.stats.fastRetransmits.Add(uint64(len(frames)))
	}
	for len(frames) > 0 {
		n, size := 1, len(frames[0].frame)
		for n < len(frames) && size+len(frames[n].frame) <= datagramBudget {
			size += len(frames[n].frame)
			n++
		}
		out = append(out, r.datagramLocked(p, false, frames[:n]))
		frames = frames[n:]
	}
	return out
}

// Send transmits the message hdr, payload to the peer with FIFO,
// exactly-once semantics; the peer's sink receives the same two slices.
// hdr is the channel header, the part that successive messages to one
// peer tend to repeat (nil is a valid, empty header): a frame whose hdr
// is byte-equal to the previous frame's to that peer leaves it out, and
// the receiver restores it. Send never waits: past a full window the
// frame joins the peer's backlog, to leave as acknowledgements open the
// window, and past the backlog's bound Send returns ErrBacklog (after
// Close, ErrClosed). Delivery failure after retries is reported
// asynchronously on Failures. Send copies hdr and payload before
// returning, so the caller may reuse both slices immediately.
//
// A small frame is staged rather than written while the peer's next
// acknowledgement is certain to be on its way without waiting for the
// peer's delayed-ack timer: when ackEvery transmitted frames are
// unacknowledged (their arrival forces an immediate ack), or when frames
// are already staged behind such a run. Staged frames leave as one
// datagram, never larger than datagramBudget, when an acknowledgement
// frees window space, when the budget is reached or the next frame would
// overshoot it, when the window fills, and when the receive path owes
// the peer an ack they can carry; the retransmission timer
// coming due is the backstop. No frame waits on a clock of its own, and a
// frame sent into a quiet channel is written before Send returns,
// carrying any ack its peer is owed.
func (r *Reliable) Send(to netsim.Addr, hdr, payload []byte) error {
	return r.send(to, hdr, payload, false, false)
}

// SendWait is AwaitWindow and Send in one critical section.
func (r *Reliable) SendWait(to netsim.Addr, hdr, payload []byte) error {
	return r.send(to, hdr, payload, true, false)
}

// Reserve claims a place for one frame to the peer, so that the next
// SendReserved to it is not refused for backlog; past the backlog's
// bound it returns ErrBacklog, as Send would. It never waits. A sender
// that must act between admitting a frame and sending it (core shows
// the frame to its send observers, which count it as sequenced) uses
// the pair instead of Send. Every place claimed must be spent.
func (r *Reliable) Reserve(to netsim.Addr) error {
	p := r.peer(to)
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
		return ErrClosed
	case r.refusesLocked(p):
		r.stats.backlogFull.Add(1)
		return ErrBacklog
	}
	p.reserved++
	return nil
}

// SendReserved is Send on a place Reserve claimed: never refused for
// backlog, and it never waits.
func (r *Reliable) SendReserved(to netsim.Addr, hdr, payload []byte) error {
	return r.send(to, hdr, payload, false, true)
}

// refusesLocked reports whether Send must refuse a frame to p: its
// window is full, and its backlog and the places claimed in it reach
// the bound. Caller holds p.mu.
func (r *Reliable) refusesLocked(p *peerState) bool {
	full := len(p.backlog) > 0 || len(p.unacked) >= r.cfg.Window
	return full && len(p.backlog)+p.reserved >= backlogWindows*r.cfg.Window
}

func (r *Reliable) send(to netsim.Addr, hdr, payload []byte, wait, reserved bool) error {
	p := r.peer(to)
	p.mu.Lock()
	if wait {
		r.awaitLocked(p)
	}
	if reserved {
		p.reserved--
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if !reserved && r.refusesLocked(p) {
		p.mu.Unlock()
		r.stats.backlogFull.Add(1)
		return ErrBacklog
	}
	full := len(p.backlog) > 0 || len(p.unacked) >= r.cfg.Window
	seq := p.nextSeq
	p.nextSeq++
	inline := !bytes.Equal(hdr, p.txHdr)
	if inline {
		p.txHdr = append(p.txHdr[:0], hdr...)
	}
	pkt := p.newPktLocked(seq, hdr, inline, payload)
	p.unacked[seq] = pkt
	r.stats.dataSent.Add(1)
	now := time.Now()
	p.lastSent = now
	if full {
		pkt.sent, pkt.xmit = now, now // restamped as it enters the window
		p.backlog = append(p.backlog, pkt)
		var dgram *[]byte
		if len(p.staged) > 0 { // they hold window slots only their acks can free
			dgram = r.flushLocked(p, now, false)
			r.stats.flushWindow.Add(1)
		}
		p.mu.Unlock()
		_ = r.write(to, dgram) // the frames stay unacked: a failed write is a lost datagram
		return nil
	}
	batch, dgram := r.placeLocked(p, pkt, now)
	p.mu.Unlock()
	if err := r.write(to, batch); err != nil {
		return err
	}
	return r.write(to, dgram)
}

// placeLocked puts pkt, a frame entering the window at now, on its way:
// staged, or alone in dgram, after any stage it would push past the
// budget (batch). Caller holds p.mu.
func (r *Reliable) placeLocked(p *peerState, pkt *outPkt, now time.Time) (batch, dgram *[]byte) {
	pkt.sent, pkt.xmit, pkt.deadline = now, now, now.Add(r.rtoLocked(p))
	size := len(pkt.frame)
	if p.stage > 0 && p.stage+size > datagramBudget {
		// The frame would take the batch past the budget: what is staged
		// leaves first.
		batch = r.flushLocked(p, now, false)
		r.stats.flushSize.Add(1)
	}
	inFlight := len(p.unacked) - len(p.staged) - len(p.backlog) - 1 // transmitted and unacknowledged
	r.armRetxLocked(p, pkt.deadline)
	if p.stage > 0 || 2*size <= datagramBudget && inFlight >= ackEvery {
		p.stageLocked(pkt)
		if p.stage+size > datagramBudget {
			// No room for another frame like this one.
			dgram = r.flushLocked(p, now, false)
			r.stats.flushSize.Add(1)
		}
		return batch, dgram
	}
	return batch, r.datagramLocked(p, false, []*outPkt{pkt}) // alone
}

// AwaitWindow, the layer's one wait, waits while the peer has Window
// frames unacknowledged (sending staged ones first: only their acks can
// free them), or until Close. The receive goroutine and timers must not
// call it: the acknowledgement that ends the wait is read there.
func (r *Reliable) AwaitWindow(to netsim.Addr) error {
	p := r.peer(to)
	p.mu.Lock()
	defer p.mu.Unlock()
	r.awaitLocked(p)
	if p.closed {
		return ErrClosed
	}
	return nil
}

func (r *Reliable) awaitLocked(p *peerState) {
	for len(p.unacked) >= r.cfg.Window && !p.closed {
		if len(p.staged) == 0 {
			p.cond.Wait()
			continue
		}
		dgram := r.flushLocked(p, time.Now(), false)
		r.stats.flushWindow.Add(1)
		p.mu.Unlock()
		_ = r.write(p.addr, dgram) // the frames stay unacked: a failed write is a lost datagram
		p.mu.Lock()
	}
}

// admitLocked moves backlogged frames into the window while it has room,
// each placed as Send places a frame. Caller holds p.mu.
func (r *Reliable) admitLocked(out []*[]byte, p *peerState, now time.Time) []*[]byte {
	for len(p.backlog) > 0 && len(p.unacked)-len(p.backlog) < r.cfg.Window {
		pkt := p.backlog[0]
		p.backlog[0] = nil // an admitted frame must not stay reachable from the backing array
		p.backlog = p.backlog[1:]
		batch, dgram := r.placeLocked(p, pkt, now)
		out = append(out, batch, dgram) // write skips a nil one
	}
	return out
}

// Close shuts the layer and the underlying socket down, waking any
// AwaitWindow and stopping every timer. When it returns no
// goroutine of the layer runs, and none will: the receive loop and any
// delivery it was making have returned.
func (r *Reliable) Close() error {
	r.closeOnce.Do(func() {
		r.peersMu.Lock()
		r.closedB = true
		r.peersMu.Unlock()
		r.peers.Range(func(_, v any) bool {
			p := v.(*peerState)
			p.mu.Lock()
			p.closed = true
			p.cond.Broadcast()
			if p.retx != nil {
				p.retx.Stop()
			}
			if p.ackTimer != nil {
				p.ackTimer.Stop()
			}
			p.mu.Unlock()
			return true
		})
		r.pc.Close()
	})
	r.wg.Wait()
	return nil
}

//wwlint:nowait the receive goroutine reads the acknowledgements every wait of the layer is for
func (r *Reliable) recvLoop() {
	defer r.wg.Done()
	//wwlint:allow goleak ReadFrom fails once Close closes the packet socket, ending the loop
	for {
		dgram, from, err := r.pc.ReadFrom()
		if err != nil {
			return
		}
		r.handleDatagram(from, dgram)
	}
}

// handleDatagram unpacks one arriving datagram: the ack in its header,
// then each frame in order. Garbage is ignored, like a real UDP service.
// The frame payloads are subslices of the datagram buffer — safe because
// ReadFrom hands this layer exclusive ownership of it.
func (r *Reliable) handleDatagram(from netsim.Addr, dgram []byte) {
	cum, hasCum, sel, hasSel, off, ok := parseHeader(dgram)
	if !ok {
		return
	}
	p := r.peer(from) // one lookup for the ack and every frame
	if hasCum {
		r.stats.acksRecv.Add(1)
		r.applyAck(p, cum, sel, hasSel)
	}
	for {
		f, next, ok := nextFrame(dgram, off)
		if !ok {
			return
		}
		off = next
		r.handleData(p, f)
	}
}

// rtoLocked is the retransmission timeout now in force for p: Config.RTO
// until the first round-trip sample, then the measured SRTT + 4*RTTVAR
// plus the AckDelay the peer may sit on an ack (never below Config.RTO/2:
// acks do the recovering, the timer can afford to be late), doubled per
// timer expiry since the last sample up to 8x.
func (r *Reliable) rtoLocked(p *peerState) time.Duration {
	base := r.cfg.RTO
	if p.srtt > 0 {
		base = max(p.srtt+max(4*p.rttvar, minRTOVar)+r.cfg.AckDelay, r.cfg.RTO/2)
	}
	return base << p.backoff
}

// sampleRTTLocked folds one round-trip measurement into p's estimator
// (RFC 6298 §2) and ends the timer back-off: the path has just shown
// what it takes. bound marks an upper bound rather than a measurement; it
// stands in only until the first measurement.
func (p *peerState) sampleRTTLocked(rtt time.Duration, bound bool) {
	rtt = max(rtt, 1) // zero srtt means "nothing yet"
	if p.srtt == 0 || p.rttBound {
		p.srtt, p.rttvar = rtt, rtt/2
	} else {
		p.rttvar += ((p.srtt - rtt).Abs() - p.rttvar) / 4
		p.srtt += (rtt - p.srtt) / 8 // stays positive: the step is under srtt/8
	}
	p.rttBound = bound
	if !bound && (p.minRTT == 0 || rtt < p.minRTT) {
		p.minRTT = rtt
	}
	p.backoff = 0
}

// armRetxLocked notes that a frame of p falls due for the timer at
// deadline, moving p's retransmission timer there when it is not set or
// set for later. Caller holds p.mu.
func (r *Reliable) armRetxLocked(p *peerState, deadline time.Time) {
	if !p.retxDue.IsZero() && !deadline.Before(p.retxDue) {
		return
	}
	p.retxDue = deadline
	if p.retx == nil {
		p.retx = time.AfterFunc(time.Until(deadline), func() { r.fireRetx(p) })
	} else {
		p.retx.Reset(time.Until(deadline))
	}
}

// releaseLocked drops an acknowledged seq from the unacked set, moves it
// to the free list for Send to reuse, and returns whichever of it and
// newest was transmitted later. The returned frame stays readable until
// p.mu is released: no Send can take it from the free list before then.
// Only a frame that has left can be acknowledged (applyAck clamps a
// confused peer's ack), so none still staged is recycled. window bounds
// the free list, and an oversized frame's buffer is not kept.
func (p *peerState) releaseLocked(seq uint64, newest *outPkt, window int) *outPkt {
	pkt, ok := p.unacked[seq]
	if !ok {
		return newest
	}
	delete(p.unacked, seq)
	if len(p.free) < window {
		if cap(pkt.frame) > datagramBudget || cap(pkt.hdr) > datagramBudget {
			pkt.frame, pkt.hdr = nil, nil
		}
		p.free = append(p.free, pkt)
	}
	if newest == nil || pkt.xmit.After(newest.xmit) {
		return pkt
	}
	return newest
}

// newPktLocked returns an outPkt holding the frame for seq, hdr and
// payload, with hdr inline or not, and its own copy of hdr: an
// acknowledged one from the free list when there is one, keeping its
// buffers if they fit. The caller sets its times. Fields are assigned
// one by one: a composite literal of the whole struct is built and then
// copied, which costs more than the assignments. Caller holds p.mu.
func (p *peerState) newPktLocked(seq uint64, hdr []byte, inline bool, payload []byte) *outPkt {
	var pkt *outPkt
	if n := len(p.free); n > 0 {
		pkt = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
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

// applyAck releases window space for an acknowledgement, however it
// arrived, feeds the round-trip estimator, resends at once what the
// acknowledgement shows to be lost, and — the ack clock — sends what was
// staged or backlogged waiting for it.
func (r *Reliable) applyAck(p *peerState, cum uint64, sel uint64, hasSel bool) {
	now := time.Now()
	p.mu.Lock()
	// Seqs past top, staged or backlogged, have never left: an ack or a
	// bitmap bit (bit i names seq cum+selBase+i) naming one is garbage.
	top := p.nextSeq - 1 - uint64(len(p.staged)+len(p.backlog))
	cum = min(cum, top)
	if sent := top - cum; !hasSel || sent == 0 {
		sel = 0
	} else {
		sel &= 1<<(sent-1) - 1
	}
	var newest *outPkt // the latest-transmitted frame this ack newly covers
	for q := p.ackedTo + 1; q <= cum; q++ {
		newest = p.releaseLocked(q, newest, r.cfg.Window)
	}
	if cum > p.ackedTo {
		p.ackedTo = cum
	}
	for b := sel; b != 0; b &= b - 1 {
		newest = p.releaseLocked(cum+selBase+uint64(bits.TrailingZeros64(b)), newest, r.cfg.Window)
	}
	if newest != nil {
		p.cond.Broadcast()
		rtt := now.Sub(newest.xmit)
		switch {
		case !newest.resent:
			p.sampleRTTLocked(rtt, false)
		case p.srtt == 0:
			// Karn: which copy this ack answers is unknown, so it is no
			// sample. But on a path slower than the back-off can reach
			// every frame is resent before its ack and none ever is; the
			// time since the first copy left is at least a bound.
			p.sampleRTTLocked(now.Sub(newest.sent), true)
		}
		// An ack sooner than the smallest round trip after a resend
		// answers the earlier copy and says nothing about frames sent
		// between the two.
		if (!newest.resent || p.minRTT > 0 && rtt >= p.minRTT) && newest.xmit.After(p.rackXmit) {
			p.rackXmit = newest.xmit
		}
	}
	var buf [2]*[]byte // keeps the usual resend or flush off the heap
	out := buf[:0]
	if sel != 0 || newest != nil && newest.resent {
		// Only an ack that names seqs above a hole, or covers a resent
		// frame, can put an unacked frame before something that arrived.
		out = r.resendLocked(out, p, r.detectLossLocked(p, cum, sel, hasSel, now), true)
	}
	if newest != nil && len(p.staged) > 0 {
		out = append(out, r.flushLocked(p, now, false))
		r.stats.flushAck.Add(1)
	}
	out = r.admitLocked(out, p, now) // into a fresh stage, for the next ack to release
	p.mu.Unlock()
	for _, dgram := range out {
		_ = r.write(p.addr, dgram)
	}
}

// detectLossLocked decides which unacked frames an acknowledgement shows
// to be lost, stamps them retransmitted at now and returns them in seq
// order for the caller to resend. A never-resent frame is lost once
// dupThresh seqs above it have arrived; any frame is lost once it was
// transmitted more than a reordering window (SRTT/4) before a frame known
// to have arrived (RACK, RFC 8985) — the rule that recovers a lost
// retransmission.
func (r *Reliable) detectLossLocked(p *peerState, cum, sel uint64, hasSel bool, now time.Time) []*outPkt {
	// The ack speaks only for seqs below known: not for frames still
	// staged or backlogged, which have yet to leave, nor, when it carries
	// a bitmap, for seqs past the bitmap's reach (without one the peer
	// holds nothing above cum).
	known := p.nextSeq - uint64(len(p.staged)+len(p.backlog))
	if hasSel {
		known = min(known, cum+selBase+64)
	}
	reorder := p.srtt / 4
	var lost []*outPkt
	for q, pkt := range p.unacked {
		if q >= known {
			continue
		}
		if !pkt.resent && bits.OnesCount64(sel>>(q-cum-1)) >= dupThresh ||
			pkt.xmit.Add(reorder).Before(p.rackXmit) {
			lost = append(lost, pkt)
		}
	}
	sortBySeq(lost)
	rto := r.rtoLocked(p)
	for _, pkt := range lost {
		pkt.markResent(now, rto)
	}
	return lost
}

// ackStateLocked is what an acknowledgement sent now says: the
// cumulative point and, while the reorder buffer holds anything, its
// bitmap (a seq more than 64 past the hole goes unreported).
func (p *peerState) ackStateLocked() (cum, sel uint64, hasSel bool) {
	if len(p.ooo) == 0 {
		return p.expected - 1, 0, false
	}
	for seq := range p.ooo {
		if i := seq - p.expected - 1; i < 64 {
			sel |= 1 << i
		}
	}
	return p.expected - 1, sel, len(p.ooo) > 0
}

// handleData sequences one arriving data frame. In-order arrivals are
// delivered immediately but acknowledged lazily (after ackEvery messages
// or AckDelay, whichever first); out-of-order, duplicate and
// retransmitted arrivals are acknowledged immediately, with the whole
// reorder state while a gap is open, so the sender's window unblocks and
// it can tell at once what is lost. A frame that left its header out
// takes it when it becomes in-order, not when it arrives: the header of
// the last in-order frame that carried one is the header the sender had
// on record when it built this frame, since both ends move that record
// in seq order and a retransmission resends identical bytes. The frame's
// slices are owned by this layer (see PacketConn.ReadFrom) and are
// handed to the sink without copying, after p.mu is released.
func (r *Reliable) handleData(p *peerState, f frame) {
	from, seq := p.addr, f.seq
	var (
		inOrder bool    // f is delivered
		run     []frame // and the frames it releases from the reorder buffer
		ackNow  bool
	)
	p.mu.Lock()
	switch {
	case seq < p.expected:
		// Retransmission of something already delivered: the previous ack
		// was likely lost, so re-ack immediately.
		r.stats.dupsDropped.Add(1)
		ackNow = true
	case seq == p.expected:
		// In-order: deliver this message and any run it completes.
		inOrder = true
		p.inOrderLocked(&f)
		p.expected++
		if len(p.ooo) > 0 {
			var buf [4]frame // keeps the usual short run off the heap
			run = buf[:0]
			for {
				nf, ok := p.ooo[p.expected]
				if !ok {
					break
				}
				delete(p.ooo, p.expected)
				p.expected++
				p.inOrderLocked(&nf)
				run = append(run, nf)
			}
		}
		r.stats.delivered.Add(uint64(1 + len(run)))
		p.ackPending += 1 + len(run)
		if p.ackPending >= ackEvery {
			ackNow = true
		} else if !p.ackTimerSet {
			p.ackTimerSet = true
			if p.ackTimer == nil {
				p.ackTimer = time.AfterFunc(r.cfg.AckDelay, func() { r.fireAck(p) })
			} else {
				p.ackTimer.Reset(r.cfg.AckDelay)
			}
		}
	default: // seq > expected
		if _, dup := p.ooo[seq]; dup {
			r.stats.dupsDropped.Add(1)
		} else {
			p.ooo[seq] = f
		}
		// A gap is open: ack immediately, so the sender retransmits only
		// the hole.
		ackNow = true
	}
	var dgram *[]byte
	switch {
	case ackNow && len(p.staged) > 0:
		// Staged data is headed back to this peer anyway: the ack rides
		// with it, flushed now, instead of going bare.
		dgram = r.flushLocked(p, time.Now(), true)
		r.stats.flushAck.Add(1)
	case ackNow:
		dgram = r.datagramLocked(p, true, nil)
	}
	p.mu.Unlock()
	_ = r.write(from, dgram)
	if inOrder {
		r.deliver(f.hdr, f.payload, from)
		p.delivered.Add(1)
	}
	for _, rf := range run {
		r.deliver(rf.hdr, rf.payload, from)
		p.delivered.Add(1)
	}
}

// inOrderLocked resolves the header of f, the next frame in order: its
// own when inline, which becomes the one on record, and otherwise the
// one on record. Caller holds p.mu.
func (p *peerState) inOrderLocked(f *frame) {
	if f.inline {
		p.rxHdr = f.hdr
	} else {
		f.hdr = p.rxHdr
	}
}

// enter admits one timer callback: it refuses once Close has begun, and
// otherwise counts the callback in wg before Close can wait on it, so a
// callback already running finishes before Close returns and none runs
// after. An admitted caller must call r.wg.Done.
func (r *Reliable) enter() bool {
	r.peersMu.Lock()
	defer r.peersMu.Unlock()
	if r.closedB {
		return false
	}
	r.wg.Add(1)
	return true
}

// fireAck runs when p's delayed-ack timer expires: the ack the peer is
// owed leaves bare, unless a datagram has carried it in the meantime.
func (r *Reliable) fireAck(p *peerState) {
	if !r.enter() {
		return
	}
	defer r.wg.Done()
	var dgram *[]byte
	p.mu.Lock()
	p.ackTimerSet = false
	if p.ackPending > 0 {
		dgram = r.datagramLocked(p, true, nil)
	}
	p.mu.Unlock()
	_ = r.write(p.addr, dgram)
}

// fireRetx runs when p's retransmission timer expires: it releases staged
// frames whose ack is overdue, resends every frame past its deadline,
// fails those out of retries, admits backlogged frames to the window
// they free, and moves the timer to the earliest deadline still ahead.
func (r *Reliable) fireRetx(p *peerState) {
	if !r.enter() {
		return
	}
	defer r.wg.Done()
	var (
		now     = time.Now()
		expired []*outPkt
		failed  []SendFailure
		next    time.Time // earliest deadline still ahead
		resent  []*[]byte
		dgram   *[]byte
	)
	p.mu.Lock()
	backlogged := p.nextSeq - uint64(len(p.backlog)) // seqs from here have no deadline yet
	if len(p.staged) > 0 && !p.closed {
		for seq, pkt := range p.unacked {
			if seq < backlogged && !pkt.deadline.After(now) {
				// The backstop: an ack the staged frames were waiting
				// for is overdue. They leave now, in their batch, with
				// a fresh deadline — none has been on the wire, so none
				// is resent below.
				dgram = r.flushLocked(p, now, false)
				r.stats.flushBackstop.Add(1)
				break
			}
		}
	}
	for seq, pkt := range p.unacked {
		switch {
		case seq >= backlogged:
		case pkt.deadline.After(now):
			if next.IsZero() || pkt.deadline.Before(next) {
				next = pkt.deadline
			}
		case pkt.retries >= r.cfg.MaxRetries:
			// Not recycled: the failure aliases pkt.hdr and pkt.frame.
			delete(p.unacked, seq)
			f, _, _ := nextFrame(pkt.frame, 0)
			failed = append(failed, SendFailure{
				To:      p.addr,
				Seq:     seq,
				Hdr:     pkt.hdr,
				Payload: f.payload,
				Err:     ErrTooManyRetries,
			})
		default:
			expired = append(expired, pkt)
		}
	}
	if len(expired) > 0 {
		// One expiry, one step of back-off, however many frames it
		// caught; it stays until an ack yields a round-trip sample.
		p.backoff = min(p.backoff+1, maxBackoff)
		rto := r.rtoLocked(p)
		sortBySeq(expired)
		for _, pkt := range expired {
			pkt.retries++
			pkt.markResent(now, rto)
		}
		if next.IsZero() || expired[0].deadline.Before(next) {
			next = expired[0].deadline
		}
		resent = r.resendLocked(nil, p, expired, false)
	}
	p.retxDue = next // zero once nothing is in flight
	if !next.IsZero() && !p.closed {
		p.retx.Reset(time.Until(next))
	}
	if len(failed) > 0 {
		p.cond.Broadcast()
		if !p.closed {
			resent = r.admitLocked(resent, p, now) // placeLocked arms the timer for them
		}
	}
	p.mu.Unlock()
	for _, d := range resent {
		_ = r.write(p.addr, d)
	}
	_ = r.write(p.addr, dgram)
	if len(failed) > 0 {
		r.stats.failures.Add(uint64(len(failed)))
		for _, f := range failed {
			select {
			case r.failures <- f:
			default: // nobody is listening
				r.stats.failuresDropped.Add(1)
			}
		}
	}
}
