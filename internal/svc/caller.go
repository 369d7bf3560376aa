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
type Caller struct {
	d  *core.Dapplet
	in *core.Inbox

	mu      sync.Mutex
	seq     uint64
	waiting map[uint64]*Pending
	notify  func(*wire.Envelope)
}

// NewCaller attaches a caller to the dapplet: a fresh reply inbox plus a
// dapplet-managed thread demultiplexing its replies. The thread stops
// with the dapplet.
func NewCaller(d *core.Dapplet) *Caller {
	c := &Caller{d: d, in: d.NewInbox(), waiting: make(map[uint64]*Pending)}
	d.Spawn(func() {
		for {
			env, err := c.in.ReceiveEnvelope()
			if err != nil {
				return
			}
			c.onEnvelope(env)
		}
	})
	return c
}

// ReplyRef returns the caller's reply inbox address — the identity a
// service sees for this caller (the directory service, for example, keys
// watch subscriptions on it).
func (c *Caller) ReplyRef() wire.InboxRef { return c.in.Ref() }

// OnNotify registers a callback for uncorrelated messages arriving on the
// reply inbox — server-initiated pushes such as directory watch events.
// The callback runs on the caller's demultiplex thread and must not
// block.
func (c *Caller) OnNotify(f func(*wire.Envelope)) {
	c.mu.Lock()
	c.notify = f
	c.mu.Unlock()
}

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
		p.late(decodeMsg(rep))
	case p != nil:
		p.ch <- rep
	}
}

func (c *Caller) forget(seq uint64) {
	c.mu.Lock()
	delete(c.waiting, seq)
	c.mu.Unlock()
}

// Pending is one in-flight request: transmitted, not yet awaited.
type Pending struct {
	c    *Caller
	seq  uint64
	ch   chan *repMsg
	late func(wire.Msg, error)
	// abandoned marks a call whose Await gave up while late is set: the
	// reply, when it comes, goes to late. Guarded by c.mu.
	abandoned bool
}

// OnLate routes a reply that arrives after Await gave up on its context
// to f, decoded as AwaitMsg would have returned it, instead of dropping
// it. A request whose effect the caller must undo — a token grant booked
// to it at the allocator — uses it to hand that effect back. f runs once,
// on the caller's demultiplex thread or Await's, and must not block; a
// reply awaited normally never reaches it. Call OnLate before Await.
func (p *Pending) OnLate(f func(wire.Msg, error)) { p.late = f }

// Send transmits one correlated request to a served inbox under the given
// session tag and returns the pending call. Splitting transmit from await
// lets callers rely on the reliable layer's per-destination FIFO ordering
// (the request is on the wire when Send returns) while collecting the
// reply later, possibly on another thread.
func (c *Caller) Send(to wire.InboxRef, session string, req wire.Msg) (*Pending, error) {
	body, err := wire.EncodeBody(req)
	if err != nil {
		return nil, err
	}
	p := &Pending{c: c, ch: make(chan *repMsg, 1)}
	c.mu.Lock()
	c.seq++
	p.seq = c.seq
	c.waiting[p.seq] = p
	c.mu.Unlock()
	rm := &reqMsg{Seq: p.seq, ReplyInbox: c.in.Name(), BodyID: body.ID(), Body: body.Bytes()}
	err = c.d.SendDirect(to, session, rm)
	body.Release()
	if err != nil {
		c.forget(p.seq)
		return nil, err
	}
	return p, nil
}

// Await blocks until the reply arrives, decoding its body into resp
// (which may be nil to discard it), or until ctx ends — returning
// ctx.Err(), i.e. context.Canceled or context.DeadlineExceeded — or the
// dapplet stops (core.ErrStopped). A reply carrying a service error
// returns it as a typed *Error. Await may be called once per Pending.
func (p *Pending) Await(ctx context.Context, resp wire.Msg) error {
	rep, err := p.wait(ctx)
	if err != nil {
		return err
	}
	return decodeReply(rep, resp)
}

// AwaitMsg is Await for callers that do not know the response type up
// front: the body is decoded into a fresh value of its registered type
// (nil for an empty reply).
func (p *Pending) AwaitMsg(ctx context.Context) (wire.Msg, error) {
	rep, err := p.wait(ctx)
	if err != nil {
		return nil, err
	}
	return decodeMsg(rep)
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
// OnLate callback when one is set — including a reply the demultiplexer
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
		p.late(decodeMsg(<-p.ch))
	}
}

func (p *Pending) wait(ctx context.Context) (*repMsg, error) {
	select {
	case rep := <-p.ch:
		return rep, nil
	case <-ctx.Done():
		p.abandon()
		return nil, ctx.Err()
	case <-p.c.d.Stopped():
		p.c.forget(p.seq)
		return nil, core.ErrStopped
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
