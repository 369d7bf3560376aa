package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lclock"
	"repro/internal/netsim"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Dapplet is a process in a collaborative distributed application. It
// operates in a single address space, owns a persistent state store, a
// logical clock, and sets of inboxes and outboxes, and communicates with
// other dapplets through the reliable ordered-delivery layer.
type Dapplet struct {
	name string
	typ  string
	addr netsim.Addr // set before rel starts delivering, which reads it
	rel  *transport.Reliable
	dec  wire.EnvelopeDecoder // used by deliver alone

	clock *lclock.Clock
	store *state.Store

	mu       sync.Mutex
	inboxes  map[string]*Inbox
	outboxes map[string]*Outbox
	anonSeq  uint64

	deadLetters atomic.Uint64

	obsMu   sync.RWMutex
	recvObs []func(*wire.Envelope)
	sendObs []func(*wire.Envelope)

	// sendMu is read-held by each send from its Lamport stamp to its
	// sequencing by the transport, and write-held by Quiesce.
	sendMu sync.RWMutex

	onStop []func() // guarded by mu; run once by Stop

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// DappletOption configures a dapplet at construction.
type DappletOption func(*dappletConfig)

type dappletConfig struct {
	relCfg   transport.Config
	store    *state.Store
	queueCap int
}

// WithTransportConfig tunes the dapplet's reliable layer.
func WithTransportConfig(c transport.Config) DappletOption {
	return func(dc *dappletConfig) { dc.relCfg = c }
}

// WithQueueCap sets the capacity of the dapplet's netsim receive queue.
// It is honoured by Runtime.Launch, which binds the endpoint — a swarm's
// mostly idle members run with small queues so per-dapplet memory stays
// flat, and its directory replicas with queues sized to their heartbeat
// fan-in; NewDapplet itself ignores it (its socket is already bound).
func WithQueueCap(n int) DappletOption {
	return func(dc *dappletConfig) { dc.queueCap = n }
}

// withStore hands the dapplet the store a crashed incarnation left
// (Runtime.Restart); by default the dapplet gets a fresh store.
func withStore(s *state.Store) DappletOption {
	return func(dc *dappletConfig) { dc.store = s }
}

// NewDapplet creates a dapplet on the given datagram socket and starts its
// receive goroutine. name identifies the instance ("mani-calendar"); typ
// names its behaviour type ("calendar").
func NewDapplet(name, typ string, pc transport.PacketConn, opts ...DappletOption) *Dapplet {
	cfg := dappletConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.store == nil {
		cfg.store = state.NewStore()
	}
	d := &Dapplet{
		name:     name,
		typ:      typ,
		addr:     pc.LocalAddr(),
		clock:    lclock.New(name),
		store:    cfg.store,
		inboxes:  make(map[string]*Inbox),
		outboxes: make(map[string]*Outbox),
		stopped:  make(chan struct{}),
	}
	d.rel = transport.NewReliable(pc, cfg.relCfg, d.deliver)
	return d
}

// Name returns the dapplet instance name.
func (d *Dapplet) Name() string { return d.name }

// Type returns the dapplet's behaviour type.
func (d *Dapplet) Type() string { return d.typ }

// Addr returns the dapplet's global address (host and port).
func (d *Dapplet) Addr() netsim.Addr { return d.addr }

// Clock returns the dapplet's logical clock. Every message the dapplet
// sends or receives passes through it, so the clock satisfies the global
// snapshot criterion (§4.2).
func (d *Dapplet) Clock() *lclock.Clock { return d.clock }

// Store returns the dapplet's persistent state store.
func (d *Dapplet) Store() *state.Store { return d.store }

// Transport returns the dapplet's reliable layer, exposing its statistics.
func (d *Dapplet) Transport() *transport.Reliable { return d.rel }

// DeadLetters returns the number of messages that arrived for inbox names
// this dapplet does not have.
func (d *Dapplet) DeadLetters() uint64 { return d.deadLetters.Load() }

// Inbox returns the named inbox, creating it if needed. Named inboxes
// implement §3.2 "Strings as Names for Inboxes": "a professor dapplet may
// have inboxes called students and grades".
func (d *Dapplet) Inbox(name string) *Inbox {
	d.mu.Lock()
	if in, ok := d.inboxes[name]; ok {
		d.mu.Unlock()
		return in
	}
	in := newInbox(d, name)
	d.inboxes[name] = in
	d.mu.Unlock()
	d.closeIfStopped(in)
	return in
}

// closeIfStopped closes an inbox created after Stop began: Stop's sweep
// snapshotted the inbox map before this insert, so without the check a
// late-created inbox (e.g. a lazily constructed svc caller's reply
// inbox) would never close and its consumer thread would block Stop
// forever.
func (d *Dapplet) closeIfStopped(in *Inbox) {
	select {
	case <-d.stopped:
		in.close()
	default:
	}
}

// NewInbox creates an inbox with a fresh auto-generated name, standing in
// for the paper's inboxes "to which no strings are attached" (the
// generated name plays the role of the local id in the global address).
func (d *Dapplet) NewInbox() *Inbox { return d.newAnonInbox(nil) }

// NewInlineInbox creates an inbox with a fresh auto-generated name whose
// arrivals are never queued: each runs f on the goroutine delivering it,
// which is the transport's receive goroutine for arrivals off the wire
// and the caller's for DeliverLocal. f must never wait, on the network
// or on anything else (see OnRecv): the frames after this one, acks
// included, wait behind it. Once the inbox closes, arrivals are dropped.
// Nothing is ever queued, so the receive methods only report the close.
//
// The envelope f is handed is lent, body included: it is valid until f
// returns, and f must copy what it keeps. An arrival off the wire is
// decoded into the dapplet's decoder scratch (wire.EnvelopeDecoder.Lend),
// which the next arrival overwrites.
func (d *Dapplet) NewInlineInbox(f func(*wire.Envelope)) *Inbox {
	return d.newAnonInbox(f)
}

// HandleInline is Handle on an inline inbox: it creates the named inbox,
// which must not exist yet, and runs f for each arrival on the goroutine
// delivering it, with no thread and no queue (see NewInlineInbox, whose
// contract f keeps: it never waits, and the envelope is lent until f
// returns). Services whose per-frame work never waits use it instead of
// Handle.
func (d *Dapplet) HandleInline(inboxName string, f func(*wire.Envelope)) {
	d.mu.Lock()
	if _, ok := d.inboxes[inboxName]; ok {
		d.mu.Unlock()
		panic(fmt.Sprintf("core: HandleInline: inbox %q already exists on %q", inboxName, d.name))
	}
	in := d.addInboxLocked(inboxName, f)
	d.mu.Unlock()
	d.closeIfStopped(in)
}

func (d *Dapplet) newAnonInbox(inline func(*wire.Envelope)) *Inbox {
	d.mu.Lock()
	d.anonSeq++
	in := d.addInboxLocked(fmt.Sprintf("_in%d", d.anonSeq), inline)
	d.mu.Unlock()
	d.closeIfStopped(in)
	return in
}

// addInboxLocked creates and registers an inbox, inline when inline is
// non-nil. Caller holds d.mu.
func (d *Dapplet) addInboxLocked(name string, inline func(*wire.Envelope)) *Inbox {
	in := newInbox(d, name)
	in.inline = inline
	d.inboxes[name] = in
	return in
}

// LookupInbox finds an existing inbox by name.
func (d *Dapplet) LookupInbox(name string) (*Inbox, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	in, ok := d.inboxes[name]
	return in, ok
}

// RemoveInbox closes and removes a named inbox.
func (d *Dapplet) RemoveInbox(name string) {
	d.mu.Lock()
	in, ok := d.inboxes[name]
	delete(d.inboxes, name)
	d.mu.Unlock()
	if ok {
		in.close()
	}
}

// Outbox returns the named outbox, creating it if needed.
func (d *Dapplet) Outbox(name string) *Outbox {
	d.mu.Lock()
	defer d.mu.Unlock()
	if o, ok := d.outboxes[name]; ok {
		return o
	}
	o := newOutbox(d, name)
	d.outboxes[name] = o
	return o
}

// Handle attaches a callback to the named inbox and consumes its messages
// on a dedicated thread; services (the paper's "servlets") use this to
// process control traffic without the application's involvement.
func (d *Dapplet) Handle(inboxName string, h func(*wire.Envelope)) {
	in := d.Inbox(inboxName)
	d.Spawn(func() {
		for {
			env, err := in.ReceiveEnvelope()
			if err != nil {
				return
			}
			h(env)
		}
	})
}

// Spawn runs f on a dapplet-managed thread; Stop waits for it to return.
// Paper dapplets are multithreaded Java processes; Spawn is the goroutine
// equivalent.
func (d *Dapplet) Spawn(f func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		f()
	}()
}

// Stopped returns a channel closed when the dapplet stops; spawned threads
// select on it to exit promptly.
func (d *Dapplet) Stopped() <-chan struct{} { return d.stopped }

// OnStop registers a cleanup callback run once by Stop, after the
// socket closes (sends already fail fast) and before inboxes close and
// threads are waited for. Services attached to the dapplet use it to
// detach — a failure detector stops its timers and waits out their
// callbacks here — without parking a goroutine on Stopped() per
// service.
func (d *Dapplet) OnStop(f func()) {
	d.mu.Lock()
	d.onStop = append(d.onStop, f)
	d.mu.Unlock()
}

// OnRecv registers an observer invoked for every arriving envelope, after
// the clock merge and before the envelope is queued. Services such as
// snapshots use it to watch channel traffic. Observers of wire traffic
// run on the receive goroutine, in arrival order, and must not wait on
// the network — not on a reply, a window (an outbox send, SendEncoded)
// or a lock held across either: what would end it is read there. An
// observer must not keep env, its body or anything they point to after
// it returns: an arrival for an inline inbox is lent (see
// NewInlineInbox), and the next arrival overwrites it.
func (d *Dapplet) OnRecv(f func(*wire.Envelope)) {
	d.obsMu.Lock()
	d.recvObs = append(d.recvObs, f)
	d.obsMu.Unlock()
}

// OnSend registers an observer invoked for every envelope this dapplet
// hands to the transport, after clock stamping and before the transport
// sees it: a SendDirect the transport then refuses for backlog
// (transport.ErrBacklog) has been shown to it all the same. It may keep
// the envelope, but a body it keeps it copies: a relay forward sends the
// lent frame its inline handler was given (see HandleInline). It runs
// inside the send's hold (see Quiesce), so it must not send through the
// dapplet or wait. Its last user is the benchmark's tracer; once that
// reads the transport instead, OnSend goes (ROADMAP item 20(c)).
func (d *Dapplet) OnSend(f func(*wire.Envelope)) {
	d.obsMu.Lock()
	d.sendObs = append(d.sendObs, f)
	d.obsMu.Unlock()
}

// QuiescedSend sends msg from inside Quiesce: stamped and sequenced at
// once, never waiting and never refused. It is the transport's owed
// send (transport.Reliable.SendOwed): past the peer's full window, and
// past its backlog's bound too, the frame joins the backlog: a
// snapshot's marker or flush, dropped, would leave its cut incomplete.
type QuiescedSend func(to wire.InboxRef, session string, msg wire.Msg) error

// Quiesce runs f while no send of the dapplet is between its Lamport
// stamp and its sequencing by the transport: every send stamped before
// f has its place in its channel, and every send stamped after f follows
// all that f sent. Each send read-holds the lock Quiesce write-holds,
// across those two steps only; a send that waits for a window waits
// before it stamps. The snapshot service records a cut with it: the
// state, the transport's per-peer counts and the markers that close
// the channels, at one point of every channel.
//
// f sends with send alone. It, and anything it calls (a snapshot's
// StateFunc), must never send through the dapplet any other way and
// never wait: not on the network, nor on a lock a sender may hold, since
// every sender of the dapplet waits for f.
func (d *Dapplet) Quiesce(f func(send QuiescedSend)) {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	f(d.sendQuiesced)
}

func (d *Dapplet) sendQuiesced(to wire.InboxRef, session string, msg wire.Msg) error {
	body, err := wire.EncodeBody(msg)
	if err != nil {
		return err
	}
	env := d.direct(to, session, msg)
	env.Lamport = d.clock.StampSend()
	err = d.transmit(&env, body, d.rel.SendOwed)
	body.Release()
	return err
}

// sendBufPool recycles envelope encode buffers: the reliable layer copies
// the payload into its retransmission frame before Send returns, so the
// buffer can be reused as soon as the send completes.
var sendBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// direct is the envelope of a send outside any outbox binding, not yet
// stamped.
func (d *Dapplet) direct(to wire.InboxRef, session string, msg wire.Msg) wire.Envelope {
	return wire.Envelope{To: to, FromDapplet: d.Addr(), Session: session, Body: msg}
}

// send stamps env and hands it to the transport's send under the send
// hold (see Quiesce). It never waits.
func (d *Dapplet) send(env *wire.Envelope, body wire.Body, send transportSend) error {
	d.sendMu.RLock()
	env.Lamport = d.clock.StampSend()
	err := d.transmit(env, body, send)
	d.sendMu.RUnlock()
	return err
}

// sendWait is send once the peer's window has room. Should the transport
// still refuse the frame for backlog, filled by other senders in
// between, it waits again and restamps: a waiting send is never refused
// for backlog.
func (d *Dapplet) sendWait(env *wire.Envelope, body wire.Body) error {
	for {
		if err := d.rel.AwaitWindow(env.To.Dapplet); err != nil {
			return err
		}
		if err := d.send(env, body, d.rel.Send); !errors.Is(err, transport.ErrBacklog) {
			return err
		}
	}
}

// transportSend is the transport call a frame leaves by:
// transport.Reliable.Send, which refuses a frame past the peer's backlog
// bound, or SendOwed, which never does. Neither waits.
type transportSend func(to netsim.Addr, hdr, payload []byte) error

// transmit frames an already-encoded body with env's header words and
// hands it to the transport by send, split at Lamport into the channel
// header the transport sends only when it changes and the payload it
// always sends; Outbox.Send uses it to fan one body encoding out to many
// destinations. env is stamped, and the caller holds the send hold. env
// does not escape, so callers build it on the stack; send observers,
// which may keep what they are handed, get a heap copy, made only when
// one is registered, before the transport takes the frame.
func (d *Dapplet) transmit(env *wire.Envelope, body wire.Body, send transportSend) error {
	bufp := sendBufPool.Get().(*[]byte)
	buf := wire.AppendEnvelopeHeader((*bufp)[:0], env, body)
	n := len(buf)
	buf = wire.AppendEnvelopePayload(buf, env, body)
	*bufp = buf
	d.obsMu.RLock()
	obs := d.sendObs
	d.obsMu.RUnlock()
	if len(obs) > 0 {
		kept := new(wire.Envelope)
		*kept = *env
		for _, f := range obs {
			f(kept)
		}
	}
	err := send(env.To.Dapplet, buf[:n], buf[n:])
	if cap(buf) <= wire.MaxPooledBuf {
		sendBufPool.Put(bufp)
	}
	return err
}

// SendEncoded sends an already-encoded body to an inbox reference outside
// any outbox binding, stamping the clock per send. The relay layer uses
// it to encode a frame once and transmit the same bytes to all of its
// tree neighbors. It waits for the peer's window as an outbox send does,
// so it must not be called from the receive goroutine or a timer.
func (d *Dapplet) SendEncoded(to wire.InboxRef, session string, msg wire.Msg, body wire.Body) error {
	env := d.direct(to, session, msg)
	return d.sendWait(&env, body)
}

// ForwardEncoded is SendEncoded without the wait, and never refused: it
// is the transport's owed send (transport.Reliable.SendOwed), so past
// the peer's full window the frame joins the transport's backlog, past
// its bound too. The relay forwards frames with it from the receive
// goroutine; the backlog is then the one queue of forwards owed to a
// neighbour, and keeps them in order behind each other.
func (d *Dapplet) ForwardEncoded(to wire.InboxRef, session string, msg wire.Msg, body wire.Body) error {
	env := d.direct(to, session, msg)
	return d.send(&env, body, d.rel.SendOwed)
}

// DeliverLocal queues an envelope into this dapplet's inboxes exactly as
// if it had arrived off the wire: the clock observes the stamp, receive
// observers (snapshots) see it, and it lands in env.To.Inbox — or runs
// that inbox's func, on this goroutine, for an inline inbox — or the
// dead-letter count. The relay layer delivers tree-multicast payloads
// through it, and checkpoint channel replay re-queues in-flight messages
// with it, so both stay inside the §4.2 clock discipline. Arrivals off
// the wire take this path on the receive goroutine (see OnRecv).
func (d *Dapplet) DeliverLocal(env *wire.Envelope) {
	in, _ := d.LookupInbox(env.To.Inbox)
	d.arrive(env, in)
}

// arrive is DeliverLocal once env.To.Inbox has been looked up: in is that
// inbox, nil if there is none.
func (d *Dapplet) arrive(env *wire.Envelope, in *Inbox) {
	d.clock.ObserveRecv(env.Lamport)
	d.obsMu.RLock()
	obs := d.recvObs
	d.obsMu.RUnlock()
	for _, f := range obs {
		f(env)
	}
	if in == nil {
		d.deadLetters.Add(1)
		return
	}
	in.push(env)
}

// SendDirect sends msg to an inbox reference outside any outbox binding.
// Services use it for point-to-point control traffic (invitations, acks);
// application traffic should flow through outboxes. It never waits.
func (d *Dapplet) SendDirect(to wire.InboxRef, session string, msg wire.Msg) error {
	body, err := wire.EncodeBody(msg)
	if err != nil {
		return err
	}
	env := d.direct(to, session, msg)
	err = d.send(&env, body, d.rel.Send)
	body.Release()
	return err
}

// deliver is the reliable layer's sink, run on its receive goroutine:
// it decodes each in-order message with dec, which reuses the header
// strings of the message before, fills in the addresses no frame carries
// (this dapplet, the transport's peer) and delivers it like DeliverLocal.
// The header names the inbox, which is looked up once: a queued inbox
// gets an envelope of its own, an inline one the decoder's lent scratch,
// since its func is done with the envelope when it returns. A message
// whose header does not decode — a peer that sent a frame without one
// and never one with — is a dead letter.
func (d *Dapplet) deliver(hdr, payload []byte, from netsim.Addr) {
	name, err := d.dec.Header(hdr)
	if err != nil {
		d.deadLetters.Add(1)
		return
	}
	in, _ := d.LookupInbox(name)
	var env *wire.Envelope
	if in != nil && in.inline != nil {
		env, err = d.dec.Lend(payload)
	} else {
		env, err = d.dec.Payload(payload)
	}
	if err != nil {
		d.deadLetters.Add(1)
		return
	}
	env.To.Dapplet, env.FromDapplet = d.Addr(), from
	d.arrive(env, in)
}

// Stop shuts the dapplet down: the socket closes, all inboxes close, and
// spawned threads are waited for.
func (d *Dapplet) Stop() {
	d.stopOnce.Do(func() {
		close(d.stopped)
		d.rel.Close()
		d.mu.Lock()
		fns := d.onStop
		boxes := make([]*Inbox, 0, len(d.inboxes))
		for _, in := range d.inboxes {
			boxes = append(boxes, in)
		}
		d.mu.Unlock()
		// OnStop callbacks run after the socket closes (a callback still
		// in a send fails fast instead of waiting for a window) and
		// before threads are waited for (a callback may wait out timer
		// callbacks that still spawn threads).
		for _, f := range fns {
			f()
		}
		for _, in := range boxes {
			in.close()
		}
		d.store.Close()
	})
	d.wg.Wait()
}
