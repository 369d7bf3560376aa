package svc

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// Caller issues requests from a dapplet to svc-served inboxes. It owns a
// private reply inbox and matches replies to calls by correlation id, so
// any number of calls (from any number of threads) multiplex over it.
// Every blocking operation takes a context.Context: cancellation and
// deadlines are honoured uniformly, returning ctx.Err() — never a
// service-specific timeout error.
//
// Replies are matched on the goroutine that delivers them, the
// dapplet's receive goroutine: a matched reply wakes its Await directly,
// with no thread in between.
type Caller struct {
	d  *core.Dapplet
	in *core.Inbox

	mu      sync.Mutex
	seq     uint64
	waiting map[uint64]*Pending
	notify  func(*wire.Envelope)
	// free holds Pendings whose reply was consumed (by Call or Await),
	// for the next call to reuse. Guarded by mu.
	free []*Pending
}

// NewCaller attaches a caller to the dapplet: a fresh inline reply inbox
// (core.Dapplet.NewInlineInbox), whose arrivals are matched to calls on
// the goroutine that delivers them. It starts no goroutine.
func NewCaller(d *core.Dapplet) *Caller {
	c := &Caller{d: d, waiting: make(map[uint64]*Pending)}
	c.in = d.NewInlineInbox(c.onEnvelope)
	return c
}

// ReplyRef returns the caller's reply inbox address — the identity a
// service sees for this caller (the directory service, for example, keys
// watch subscriptions on it).
func (c *Caller) ReplyRef() wire.InboxRef { return c.in.Ref() }

// OnNotify registers a callback for uncorrelated messages arriving on the
// reply inbox — server-initiated pushes such as directory watch events.
// The callback runs on the dapplet's receive goroutine, in arrival
// order, and must never wait: not on a send, a reply, or a lock held
// across either, since the frames after this one wait behind it. The
// envelope and its body are lent (core.Dapplet.NewInlineInbox): valid
// until the callback returns, so it copies what it keeps.
func (c *Caller) OnNotify(f func(*wire.Envelope)) {
	c.mu.Lock()
	c.notify = f
	c.mu.Unlock()
}

// onEnvelope matches one arrival on the reply inbox. It runs on the
// delivering goroutine and never waits: a reply's channel has room for
// its signal, and an abandoned call's late callback, which may send, gets
// a thread of its own. env and the reply are lent, so the reply is copied
// into its Pending, by value; its body aliases the datagram, which the
// transport never reuses.
func (c *Caller) onEnvelope(env *wire.Envelope) {
	rep, ok := env.Body.(*repMsg)
	if !ok {
		c.mu.Lock()
		f := c.notify
		c.mu.Unlock()
		if f != nil {
			f(env)
		}
		return
	}
	c.mu.Lock()
	p := c.waiting[rep.Seq]
	delete(c.waiting, rep.Seq)
	abandoned := p != nil && p.abandoned
	c.mu.Unlock()
	switch {
	case abandoned:
		p.rep = *rep
		c.d.Spawn(func() { p.late(decodeMsg(&p.rep)) })
	case p != nil:
		p.rep = *rep
		p.ch <- struct{}{}
	}
}

func (c *Caller) forget(seq uint64) {
	c.mu.Lock()
	delete(c.waiting, seq)
	c.mu.Unlock()
}

// Pending is one in-flight request: transmitted, not yet awaited. Once
// Await or AwaitMsg has returned its reply, the Pending is dead: the
// caller reuses it for a later call, so its user must not touch it
// again.
type Pending struct {
	c   *Caller
	seq uint64
	// req is the request's frame while Send transmits it.
	req reqMsg
	// rep is the reply, written by onEnvelope before it signals ch.
	rep  repMsg
	ch   chan struct{}
	late func(wire.Msg, error)
	// abandoned marks a call whose Await gave up while late is set: the
	// reply, when it comes, goes to late. Guarded by c.mu.
	abandoned bool
}

// OnLate routes a reply that arrives after Await gave up on its context
// to f, decoded as AwaitMsg would have returned it, instead of dropping
// it. A request whose effect the caller must undo — a token grant booked
// to it at the allocator — uses it to hand that effect back. f runs once:
// on Await's goroutine when the reply was already in, otherwise on a
// dapplet thread started for it, so f may send. A reply awaited
// normally never reaches it. Call OnLate before Await.
func (p *Pending) OnLate(f func(wire.Msg, error)) { p.late = f }

// Send transmits one correlated request to a served inbox under the given
// session tag and returns the pending call. Splitting transmit from await
// lets callers rely on the reliable layer's per-destination FIFO ordering
// (the request is on the wire when Send returns) while collecting the
// reply later, possibly on another thread.
//
// The Pending comes from the caller's free list when one is there, and
// goes back to it when Await or AwaitMsg returns a reply.
func (c *Caller) Send(to wire.InboxRef, session string, req wire.Msg) (*Pending, error) {
	body, err := wire.EncodeBody(req)
	if err != nil {
		return nil, err
	}
	p := c.register()
	// SendDirect copies the frame, body bytes included, before it
	// returns, so the encode buffer is released and the frame lets go of
	// it right after.
	p.req = reqMsg{Seq: p.seq, ReplyInbox: c.in.Name(), BodyID: body.ID(), Body: body.Bytes()}
	err = c.d.SendDirect(to, session, &p.req)
	p.req.Body = nil
	body.Release()
	if err != nil {
		c.forget(p.seq)
		return nil, err
	}
	return p, nil
}

// register numbers a new call and waits for its reply under that
// number, in a Pending from the free list when one is there.
func (c *Caller) register() *Pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	var p *Pending
	if n := len(c.free); n > 0 {
		p, c.free = c.free[n-1], c.free[:n-1]
	} else {
		p = &Pending{c: c, ch: make(chan struct{}, 1)}
	}
	c.seq++
	p.seq = c.seq
	c.waiting[p.seq] = p
	return p
}

// Await blocks until the reply arrives, decoding its body into resp
// (which may be nil to discard it), or until ctx ends — returning
// ctx.Err(), i.e. context.Canceled or context.DeadlineExceeded — or the
// dapplet stops (core.ErrStopped). A reply carrying a service error
// returns it as a typed *Error. Await may be called once per Pending:
// once it has returned the reply, the Pending is back on the caller's
// free list and dead to its user.
func (p *Pending) Await(ctx context.Context, resp wire.Msg) error {
	if err := p.wait(ctx); err != nil {
		return err
	}
	err := decodeReply(&p.rep, resp)
	p.c.release(p)
	return err
}

// AwaitMsg is Await for callers that do not know the response type up
// front: the body is decoded into a fresh value of its registered type
// (nil for an empty reply). Like Await, it leaves the Pending dead.
func (p *Pending) AwaitMsg(ctx context.Context) (wire.Msg, error) {
	if err := p.wait(ctx); err != nil {
		return nil, err
	}
	m, err := decodeMsg(&p.rep)
	p.c.release(p)
	return m, err
}

func decodeMsg(rep *repMsg) (wire.Msg, error) {
	if rep.Code != 0 {
		return nil, &Error{Code: Code(rep.Code), Msg: rep.Err}
	}
	if rep.BodyID == 0 {
		return nil, nil
	}
	return wire.DecodeBody(rep.BodyID, rep.Body)
}

// abandon stops waiting for the reply: it is dropped, or routed to the
// OnLate callback when one is set — including a reply onEnvelope
// claimed just before the context ended.
func (p *Pending) abandon() {
	c := p.c
	c.mu.Lock()
	_, inFlight := c.waiting[p.seq]
	if inFlight && p.late != nil {
		p.abandoned = true
	} else {
		delete(c.waiting, p.seq)
	}
	c.mu.Unlock()
	if !inFlight && p.late != nil {
		<-p.ch
		p.late(decodeMsg(&p.rep))
	}
}

// wait waits for the reply, which it leaves in p.rep.
func (p *Pending) wait(ctx context.Context) error {
	select {
	case <-p.ch:
		return nil
	case <-ctx.Done():
		p.abandon()
		return ctx.Err()
	case <-p.c.d.Stopped():
		p.c.forget(p.seq)
		return core.ErrStopped
	}
}

func decodeReply(rep *repMsg, resp wire.Msg) error {
	if rep.Code != 0 {
		return &Error{Code: Code(rep.Code), Msg: rep.Err}
	}
	if resp == nil || rep.BodyID == 0 {
		return nil
	}
	return wire.DecodeBodyInto(rep.BodyID, rep.Body, resp)
}

// Call issues one synchronous request — the paper's pair of asynchronous
// messages — decoding the reply body into resp (which may be nil). An
// already-ended context fails fast without transmitting.
func (c *Caller) Call(ctx context.Context, to wire.InboxRef, req, resp wire.Msg) error {
	return c.CallTagged(ctx, to, "", req, resp)
}

// CallTagged is Call with a session tag on the request envelope, for
// control planes whose traffic is session-scoped.
func (c *Caller) CallTagged(ctx context.Context, to wire.InboxRef, session string, req, resp wire.Msg) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := c.Send(to, session, req)
	if err != nil {
		return err
	}
	return p.Await(ctx, resp)
}

// release returns a Pending whose reply has been received and decoded to
// the free list. Nothing else refers to it by then: onEnvelope removed it
// from waiting before signalling, and its channel is empty again. A
// reused Pending starts with no OnLate callback and no reply body.
func (c *Caller) release(p *Pending) {
	p.late, p.rep = nil, repMsg{}
	c.mu.Lock()
	c.free = append(c.free, p)
	c.mu.Unlock()
}

// Cast issues one asynchronous (one-way) request: the bare message is
// transmitted with no correlation id and no reply is expected. The server
// dispatches it by kind.
func (c *Caller) Cast(to wire.InboxRef, session string, req wire.Msg) error {
	return c.d.SendDirect(to, session, req)
}

// CallFirst fans one request (built per destination by mk, so sequence
// ids differ) out to every ref and blocks only until the first successful
// reply, returning its destination index and decoded body. The remaining
// replies are collected on background threads bounded by ctx; observe,
// when non-nil, sees every destination's outcome exactly once — possibly
// after CallFirst has returned. This is the replicated-service write
// pattern: a crashed replica costs its own timeout and nothing else. When
// every destination fails, the first error is returned.
func (c *Caller) CallFirst(ctx context.Context, refs []wire.InboxRef, mk func(i int) wire.Msg, observe func(i int, resp wire.Msg, err error)) (int, wire.Msg, error) {
	if len(refs) == 0 {
		return -1, nil, fmt.Errorf("svc: fan-out to zero destinations")
	}
	type outcome struct {
		i   int
		m   wire.Msg
		err error
	}
	results := make(chan outcome, len(refs))
	for i, ref := range refs {
		p, err := c.Send(ref, "", mk(i))
		if err != nil {
			if observe != nil {
				observe(i, nil, err)
			}
			results <- outcome{i: i, err: err}
			continue
		}
		i := i
		c.d.Spawn(func() {
			m, err := p.AwaitMsg(ctx)
			if observe != nil {
				observe(i, m, err)
			}
			results <- outcome{i: i, m: m, err: err}
		})
	}
	var firstErr error
	for n := 0; n < len(refs); n++ {
		o := <-results
		if o.err == nil {
			return o.i, o.m, nil
		}
		if firstErr == nil {
			firstErr = o.err
		}
	}
	return -1, nil, firstErr
}
