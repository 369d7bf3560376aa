package core

import (
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
// It is honoured by Runtime.Launch, which binds the endpoint — a swarm
// of mostly idle dapplets runs with small queues so per-dapplet memory
// stays flat; NewDapplet itself ignores it (its socket is already
// bound).
func WithQueueCap(n int) DappletOption {
	return func(dc *dappletConfig) { dc.queueCap = n }
}

// WithStore supplies a persistent state store (e.g. one opened from a
// file); by default the dapplet gets a fresh in-memory store.
func WithStore(s *state.Store) DappletOption {
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

// Failures exposes asynchronous delivery failures — the paper's "if a
// message is not delivered within a specified time an exception is
// raised" (§3.2).
func (d *Dapplet) Failures() <-chan transport.SendFailure { return d.rel.Failures() }

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
func (d *Dapplet) NewInbox() *Inbox {
	d.mu.Lock()
	d.anonSeq++
	name := fmt.Sprintf("_in%d", d.anonSeq)
	in := newInbox(d, name)
	d.inboxes[name] = in
	d.mu.Unlock()
	d.closeIfStopped(in)
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

// Outboxes returns the names of all outboxes.
func (d *Dapplet) Outboxes() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.outboxes))
	for n := range d.outboxes {
		out = append(out, n)
	}
	return out
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
// the network — not on a send window, a reply, or a lock a blocked sender
// holds: the ack that would free the sender waits behind the observer.
func (d *Dapplet) OnRecv(f func(*wire.Envelope)) {
	d.obsMu.Lock()
	d.recvObs = append(d.recvObs, f)
	d.obsMu.Unlock()
}

// OnSend registers an observer invoked for every envelope this dapplet
// transmits, after clock stamping and before transmission.
func (d *Dapplet) OnSend(f func(*wire.Envelope)) {
	d.obsMu.Lock()
	d.sendObs = append(d.sendObs, f)
	d.obsMu.Unlock()
}

// sendBufPool recycles envelope encode buffers: the reliable layer copies
// the payload into its retransmission frame before Send returns, so the
// buffer can be reused as soon as the send completes.
var sendBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// sendEnvelope marshals and transmits one envelope to its destination
// dapplet over the reliable layer.
func (d *Dapplet) sendEnvelope(env *wire.Envelope) error {
	body, err := wire.EncodeBody(env.Body)
	if err != nil {
		return err
	}
	err = d.sendEncoded(env, body)
	body.Release()
	return err
}

// sendEncoded frames an already-encoded body with env's header words and
// transmits it; Outbox.Send uses it to fan one body encoding out to many
// destinations. env does not escape, so callers build it on the stack;
// send observers, which may keep what they are handed, get a heap copy,
// made only when one is registered.
func (d *Dapplet) sendEncoded(env *wire.Envelope, body wire.Body) error {
	bufp := sendBufPool.Get().(*[]byte)
	buf := wire.AppendEnvelopeBody((*bufp)[:0], env, body)
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
	err := d.rel.Send(env.To.Dapplet, buf)
	if cap(buf) <= wire.MaxPooledBuf {
		sendBufPool.Put(bufp)
	}
	return err
}

// SendEncoded sends an already-encoded body to an inbox reference outside
// any outbox binding, stamping the clock per send. The relay layer uses
// it to encode a forwarded frame once and transmit the same bytes to all
// of its tree neighbors; checkpoint replay paths use it likewise.
func (d *Dapplet) SendEncoded(to wire.InboxRef, session string, msg wire.Msg, body wire.Body) error {
	env := wire.Envelope{
		To:          to,
		FromDapplet: d.Addr(),
		FromOutbox:  "",
		Session:     session,
		Lamport:     d.clock.StampSend(),
		Body:        msg,
	}
	return d.sendEncoded(&env, body)
}

// DeliverLocal queues an envelope into this dapplet's inboxes exactly as
// if it had arrived off the wire: the clock observes the stamp, receive
// observers (snapshots) see it, and it lands in env.To.Inbox or the
// dead-letter count. The relay layer delivers tree-multicast payloads
// through it, and checkpoint channel replay re-queues in-flight messages
// with it, so both stay inside the §4.2 clock discipline. Arrivals off
// the wire take this path on the receive goroutine (see OnRecv).
func (d *Dapplet) DeliverLocal(env *wire.Envelope) {
	d.clock.ObserveRecv(env.Lamport)
	d.obsMu.RLock()
	obs := d.recvObs
	d.obsMu.RUnlock()
	for _, f := range obs {
		f(env)
	}
	d.mu.Lock()
	in, ok := d.inboxes[env.To.Inbox]
	d.mu.Unlock()
	if !ok {
		d.deadLetters.Add(1)
		return
	}
	in.push(env)
}

// SendDirect sends msg to an inbox reference outside any outbox binding.
// Services use it for point-to-point control traffic (invitations, acks);
// application traffic should flow through outboxes.
func (d *Dapplet) SendDirect(to wire.InboxRef, session string, msg wire.Msg) error {
	env := wire.Envelope{
		To:          to,
		FromDapplet: d.Addr(),
		FromOutbox:  "",
		Session:     session,
		Lamport:     d.clock.StampSend(),
		Body:        msg,
	}
	return d.sendEnvelope(&env)
}

// deliver is the reliable layer's sink, run on its receive goroutine:
// it decodes each in-order frame with dec, which reuses the header
// strings of the frame before, fills in the addresses no frame carries
// (this dapplet, the transport's peer) and delivers it like DeliverLocal.
func (d *Dapplet) deliver(data []byte, from netsim.Addr) {
	env, err := d.dec.UnmarshalEnvelope(data)
	if err != nil {
		d.deadLetters.Add(1)
		return
	}
	env.To.Dapplet, env.FromDapplet = d.Addr(), from
	d.DeliverLocal(env)
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
		// in a send fails fast instead of blocking on a full window) and
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
