package transport

import (
	"errors"
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
	// its send is declared failed, counted in Stats.Failures (default 10).
	MaxRetries int
	// Window is the maximum number of unacknowledged messages per peer
	// (default 64); Send backlogs a frame past it, AwaitWindow waits.
	Window int
	// AckDelay bounds how long a cumulative acknowledgement may be
	// withheld waiting to coalesce with later ones (default RTO/8). An
	// ack is sent after 8 in-order messages or AckDelay, whichever first.
	AckDelay time.Duration
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
	return c
}

// Stats counts reliable-layer events.
type Stats struct {
	DataSent        uint64 // frames sequenced for a first transmission (coalesced, backlogged or not)
	Retransmits     uint64 // all retransmissions, ack-triggered and timer
	FastRetransmits uint64 // the share of Retransmits an acknowledgement triggered
	AcksSent        uint64 // bare acks: datagrams carrying an ack and no frame (cumulative: usually fewer than messages)
	DupsDropped     uint64 // duplicate data frames discarded
	Delivered       uint64 // messages handed to the delivery sink in order
	Failures        uint64 // frames given up on after MaxRetries timer expiries
	Skipped         uint64 // seqs the peer gave up on that were skipped here, undelivered (at most its Failures)
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
	FlushSize, FlushAck, FlushWindow, FlushBackstop uint64

	// IO is the underlying socket's syscall-level activity, when the
	// PacketConn tracks it (the UDP transport does; netsim makes no
	// syscalls and reports zeros).
	IO IOStats
}

// statCounters is the lock-free internal form of Stats: counters are
// atomics so the per-peer locks never serialize on shared accounting.
type statCounters struct {
	dataSent, retransmits, fastRetransmits, acksSent, dupsDropped, delivered, failures, skipped, backlogFull atomic.Uint64
	bytesOut, datagramsOut, acksPiggybacked                                                                  atomic.Uint64
	flushSize, flushAck, flushWindow, flushBackstop                                                          atomic.Uint64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		DataSent:        c.dataSent.Load(),
		Retransmits:     c.retransmits.Load(),
		FastRetransmits: c.fastRetransmits.Load(),
		AcksSent:        c.acksSent.Load(),
		DupsDropped:     c.dupsDropped.Load(),
		Delivered:       c.delivered.Load(),
		Failures:        c.failures.Load(),
		Skipped:         c.skipped.Load(),
		BacklogFull:     c.backlogFull.Load(),
		BytesOut:        c.bytesOut.Load(),
		DatagramsOut:    c.datagramsOut.Load(),
		AcksPiggybacked: c.acksPiggybacked.Load(),
		FlushSize:       c.flushSize.Load(),
		FlushAck:        c.flushAck.Load(),
		FlushWindow:     c.flushWindow.Load(),
		FlushBackstop:   c.flushBackstop.Load(),
	}
}

// peerState is one peer's channel and what its driver keeps beside it.
type peerState struct {
	addr netsim.Addr

	mu     sync.Mutex
	cond   *sync.Cond // broadcast when window space frees or the layer closes
	closed bool       // guarded by mu
	ch     channel    // guarded by mu
	// timer is the peer's one runtime timer, created on first use, set
	// for timerAt (zero once it has fired): the channel's deadline.
	timer   *time.Timer // guarded by mu
	timerAt time.Time   // guarded by mu

	inFlight  atomic.Int64  // len(ch.unacked), for AwaitWindow's lock-free check
	delivered atomic.Uint64 // frames the sink has returned from; the receive goroutine writes it
}

// Reliable implements per-peer FIFO, exactly-once message delivery over an
// unreliable PacketConn, using sequence numbers, cumulative+selective
// acknowledgements, ack-clocked loss detection and a measured, bounded
// exponential-backoff retransmission timer behind it.
// Messages between a pair of endpoints are delivered in the order sent
// (§3.2: "Messages sent along a channel are delivered in the order sent").
//
// Reliable drives one channel state machine (channel.go) per peer, under
// that peer's own mutex (the table itself is a sync.Map), so concurrent
// senders to different peers never contend.
type Reliable struct {
	pc  PacketConn
	cfg Config

	peers   sync.Map   // netsim.Addr -> *peerState
	peersMu sync.Mutex // serializes peer creation against Close
	closedB bool       // guarded by peersMu

	stats statCounters

	deliver func(hdr, payload []byte, from netsim.Addr)

	closeOnce sync.Once
	wg        sync.WaitGroup // the receive loop and running timer callbacks
}

// NewReliable layers reliable ordered delivery over pc and starts its
// receive goroutine. Timers are the runtime's: each peer has one, set
// for whichever of its retransmission deadline and its delayed ack
// comes first, and it holds no goroutine while it waits.
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
	r := &Reliable{pc: pc, cfg: cfg.withDefaults(), deliver: deliver}
	r.wg.Add(1)
	go r.recvLoop()
	return r
}

// LocalAddr returns the underlying socket address.
func (r *Reliable) LocalAddr() netsim.Addr { return r.pc.LocalAddr() }

// Stats returns a snapshot of the layer's counters, including the
// underlying socket's syscall counters when the transport tracks them.
func (r *Reliable) Stats() Stats {
	s := r.stats.snapshot()
	if io, ok := IOStatsOf(r.pc); ok {
		s.IO = io
	}
	return s
}

// QueueDepth returns the frames this endpoint holds for transmission
// across all peers, unacknowledged, backlogged and staged: a sender-side
// load signal, where a broadcast hot spot shows as one node's depth
// growing with group size.
func (r *Reliable) QueueDepth() int {
	total := 0
	r.peers.Range(func(_, v any) bool {
		p := v.(*peerState)
		p.mu.Lock()
		total += len(p.ch.unacked) + len(p.ch.staged)
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
	rto = r.cfg.RTO
	r.withPeer(to, func(c *channel) { srtt, rto, ok = c.srtt, c.rto(), c.srtt > 0 })
	return srtt, rto, ok
}

// LastSent reports when the last data frame to the peer was sequenced:
// a first transmission Send took, backlogged or not. Bare acks,
// retransmissions and refused sends leave it; it is zero until a frame
// has been sequenced.
func (r *Reliable) LastSent(to netsim.Addr) (t time.Time) {
	r.withPeer(to, func(c *channel) { t = c.lastSent })
	return t
}

// LastHeard reports when a datagram carrying at least one data frame
// last arrived from the peer. Duplicates, retransmissions and frames out
// of order count; bare acks and garbage do not. It is zero until such a
// datagram has arrived.
func (r *Reliable) LastHeard(from netsim.Addr) (t time.Time) {
	r.withPeer(from, func(c *channel) { t = c.lastHeard })
	return t
}

// Counts reports the peer's channel in both directions: the data frames
// sequenced to it, and the in-order frames from it that the sink has
// returned from (not while its delivery runs). The seqs are the
// channel's FIFO positions, so a sender's count is where the receiver's
// will stand once everything before it has arrived, short of frames the
// sender gave up on.
func (r *Reliable) Counts(peer netsim.Addr) (sequenced, delivered uint64) {
	if p := r.withPeer(peer, func(c *channel) { sequenced = c.nextSeq - 1 }); p != nil {
		delivered = p.delivered.Load()
	}
	return sequenced, delivered
}

// withPeer calls f with the peer's channel under the peer's lock and
// returns the peer, or nil, without calling f, for a peer never
// contacted: it creates none.
func (r *Reliable) withPeer(a netsim.Addr, f func(c *channel)) *peerState {
	v, ok := r.peers.Load(a)
	if !ok {
		return nil
	}
	p := v.(*peerState)
	p.mu.Lock()
	defer p.mu.Unlock()
	f(&p.ch)
	return p
}

// peer returns the state for a peer, creating it on first contact under
// peersMu, so that a peer can never miss Close's broadcast.
func (r *Reliable) peer(a netsim.Addr) *peerState {
	if v, ok := r.peers.Load(a); ok {
		return v.(*peerState)
	}
	r.peersMu.Lock()
	defer r.peersMu.Unlock()
	if v, ok := r.peers.Load(a); ok {
		return v.(*peerState)
	}
	p := &peerState{addr: a, closed: r.closedB, ch: newChannel(r.cfg, &r.stats)}
	p.cond = sync.NewCond(&p.mu)
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

// write sends the datagrams a transition returned, in order, counting
// each physical write and recycling its buffer, and returns the first
// error: a lost datagram, whose frames stay unacked. Must not be called
// with a peer lock held.
func (r *Reliable) write(to netsim.Addr, out ...*[]byte) error {
	var first error
	for _, dgram := range out {
		r.stats.datagramsOut.Add(1)
		r.stats.bytesOut.Add(uint64(len(*dgram)))
		if err := r.pc.WriteTo(to, *dgram); err != nil && first == nil {
			first = err
		}
		if cap(*dgram) <= dgramHdrMax+datagramBudget { // an oversized frame's buffer is not kept
			dgramPool.Put(dgram)
		}
	}
	return first
}

// settleLocked follows a transition of p's channel that began with
// before frames unacknowledged: it updates inFlight, wakes AwaitWindow
// if window space freed, and moves the timer to the channel's deadline
// if that is earlier. Caller holds p.mu.
func (r *Reliable) settleLocked(p *peerState, before int) {
	n := len(p.ch.unacked)
	p.inFlight.Store(int64(n))
	if n < before {
		p.cond.Broadcast()
	}
	d := p.ch.deadline()
	if d.IsZero() || p.closed || !p.timerAt.IsZero() && !d.Before(p.timerAt) {
		return
	}
	p.timerAt = d
	if p.timer == nil {
		p.timer = time.AfterFunc(time.Until(d), func() { r.fire(p) })
	} else {
		p.timer.Reset(time.Until(d))
	}
}

// Send transmits the message hdr, payload to the peer with FIFO,
// exactly-once semantics; the peer's sink receives the same two slices.
// hdr is the channel header, the part that successive messages to one
// peer tend to repeat (nil is a valid, empty header): a frame whose hdr
// is byte-equal to the previous frame's to that peer leaves it out, and
// the receiver restores it. Send never waits: past a full window the
// frame joins the peer's backlog, to leave as acknowledgements open the
// window, and past the backlog's bound Send returns ErrBacklog (after
// Close, ErrClosed). A frame still unacknowledged after MaxRetries
// timer expiries is given up on and counted in Stats.Failures. Send
// copies hdr and payload before returning, so the caller may reuse both
// slices immediately.
// The peer skips a frame given up on (Stats.Skipped there) and goes on
// delivering the frames after it, in order.
//
// A small frame is staged rather than written while ackEvery
// transmitted frames are unacknowledged, or frames are already staged
// behind such a run: the peer's next ack is then on its way. Staged
// frames leave as one datagram within datagramBudget when an ack frees
// window space, the budget fills, the window fills or the receive path
// owes the peer an ack; the retransmission timer is the backstop. A
// frame sent into a quiet channel is written before Send returns.
func (r *Reliable) Send(to netsim.Addr, hdr, payload []byte) error {
	return r.send(to, hdr, payload, false, false)
}

// SendOwed is Send for a frame the peer is owed: past the backlog's
// bound it joins the backlog all the same, so it is never refused for
// backlog, and it never waits. A relay forward and a snapshot marker
// are owed: dropping either would break a guarantee (an origin's
// sequence, a cut's completion), and neither may wait, since both are
// sent from the receive goroutine.
func (r *Reliable) SendOwed(to netsim.Addr, hdr, payload []byte) error {
	return r.send(to, hdr, payload, false, true)
}

// SendWait is AwaitWindow and Send in one critical section.
func (r *Reliable) SendWait(to netsim.Addr, hdr, payload []byte) error {
	return r.send(to, hdr, payload, true, false)
}

func (r *Reliable) send(to netsim.Addr, hdr, payload []byte, wait, owed bool) error {
	p := r.peer(to)
	var buf [2]*[]byte // keeps the usual one or two datagrams off the heap
	p.mu.Lock()
	if wait {
		r.awaitLocked(p)
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	out, err := p.ch.send(buf[:0], time.Now(), hdr, payload, owed)
	r.settleLocked(p, 0)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return r.write(to, out...)
}

// AwaitWindow, the layer's one wait, waits while the peer has Window
// frames unacknowledged (sending staged ones first: only their acks can
// free them), or until Close; with room it returns at once, lock-free.
// The receive goroutine and timers must not call it: the acknowledgement
// that ends the wait is read there.
func (r *Reliable) AwaitWindow(to netsim.Addr) error {
	p := r.peer(to)
	if p.inFlight.Load() < int64(r.cfg.Window) {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r.awaitLocked(p)
	if p.closed {
		return ErrClosed
	}
	return nil
}

func (r *Reliable) awaitLocked(p *peerState) {
	for len(p.ch.unacked) >= r.cfg.Window && !p.closed {
		if len(p.ch.staged) == 0 {
			p.cond.Wait()
			continue
		}
		dgram := p.ch.flush(time.Now(), false)
		r.stats.flushWindow.Add(1)
		p.mu.Unlock()
		_ = r.write(p.addr, dgram) // the frames stay unacked: a failed write is a lost datagram
		p.mu.Lock()
	}
}

// Close shuts the layer and the socket down, waking any AwaitWindow and
// stopping every timer. When it returns no goroutine of the layer runs,
// and none will.
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
			if p.timer != nil {
				p.timer.Stop()
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

// handleDatagram hands one arriving datagram, which ReadFrom gave this
// layer to own, to its peer's channel, writes the answer and calls the
// sink for each frame delivered. Garbage makes no peer.
func (r *Reliable) handleDatagram(from netsim.Addr, dgram []byte) {
	if _, _, ok := parseHeader(dgram); !ok {
		return
	}
	p := r.peer(from)
	var buf [8]*[]byte // keeps the usual acks and flushes off the heap
	p.mu.Lock()
	before := len(p.ch.unacked)
	deliv, out := p.ch.receive(buf[:0], time.Now(), dgram) // one clock reading for the ack and every frame
	r.settleLocked(p, before)
	p.mu.Unlock()
	_ = r.write(from, out...)
	for i := range deliv {
		r.deliver(deliv[i].hdr, deliv[i].payload, from)
		p.delivered.Add(1)
	}
}

// enter admits one timer callback: it refuses once Close has begun, and
// otherwise counts it in wg, so that a callback running finishes before
// Close returns and none runs after. An admitted caller calls r.wg.Done.
func (r *Reliable) enter() bool {
	r.peersMu.Lock()
	defer r.peersMu.Unlock()
	if r.closedB {
		return false
	}
	r.wg.Add(1)
	return true
}

// fire runs when p's timer expires: the channel ticks, and the timer is
// set again for its next deadline.
func (r *Reliable) fire(p *peerState) {
	if !r.enter() {
		return
	}
	defer r.wg.Done()
	var buf [4]*[]byte
	p.mu.Lock()
	p.timerAt = time.Time{}
	if p.closed {
		p.mu.Unlock()
		return
	}
	before := len(p.ch.unacked)
	out := p.ch.tick(buf[:0], time.Now())
	r.settleLocked(p, before)
	p.mu.Unlock()
	_ = r.write(p.addr, out...)
}
