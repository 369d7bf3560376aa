package svc

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// NoReply, returned as a handler's error, suppresses the reply entirely:
// the request is consumed but the caller hears nothing, and its context
// — not the framework — decides when to give up. Services that answer
// out-of-band (or deliberately drop a raced request) use it.
var NoReply = errors.New("svc: no reply")

// Ctx carries the delivery context of one request into its handler: the
// full envelope (sender address, session tag, logical timestamp) and, for
// correlated requests, the reply owed to the caller. A *Ctx and its
// envelope are lent, valid until the handler returns: the server reuses
// the Ctx for the next request and the envelope is the receive path's
// scratch, so a handler that answers later keeps the Reply from Defer,
// not c, and a thread it starts copies what it needs from c first.
type Ctx struct {
	env      *wire.Envelope
	rep      Reply
	deferred bool
}

// Reply is the answer owed to one correlated request. A handler that
// cannot answer yet takes it with Ctx.Defer and sends it later: from the
// handler of a later request (a barrier answers its early arrivals when
// the last one comes in), or from a thread it starts when the answer
// waits on something, such as a call of its own.
type Reply struct {
	d       *core.Dapplet
	to      wire.InboxRef
	session string
	seq     uint64
}

// Send answers the request with resp (nil for an empty acknowledgement)
// or, when err is non-nil, with err as a typed *Error. It is safe from
// any thread. Send on the Reply of a one-way request does nothing.
func (r Reply) Send(resp wire.Msg, err error) {
	if r.to.Inbox != "" {
		r.sendIn(new(repMsg), resp, err)
	}
}

// sendIn answers the request from rep, which it overwrites: Send's own
// frame, or the server's scratch for an answer given before the handler
// returned. SendDirect copies the frame, body bytes included, before it
// returns, so rep and the encode buffer are free again after.
func (r Reply) sendIn(rep *repMsg, resp wire.Msg, err error) {
	*rep = repMsg{Seq: r.seq}
	if err == nil && resp != nil {
		body, eerr := wire.EncodeBody(resp)
		if eerr == nil {
			defer body.Release()
			rep.BodyID, rep.Body = body.ID(), body.Bytes()
		}
		err = eerr
	}
	if err != nil {
		se := asError(err)
		rep.Code, rep.Err = uint16(se.Code), se.Msg
	}
	_ = r.d.SendDirect(r.to, r.session, rep)
	rep.Body = nil
}

// Envelope returns the request's delivery envelope.
func (c *Ctx) Envelope() *wire.Envelope { return c.env }

// From returns the requesting dapplet's global address, as the transport saw it.
func (c *Ctx) From() netsim.Addr { return c.env.FromDapplet }

// ReplyTo returns the caller's reply inbox — the address replies and any
// later pushes (e.g. directory watch events) reach the caller at, on From.
// Its inbox name is empty for one-way requests.
func (c *Ctx) ReplyTo() wire.InboxRef { return c.rep.to }

// OneWay reports whether the request expects no reply (a bare message, or
// a frame sent without a reply inbox); any handler response is dropped.
func (c *Ctx) OneWay() bool { return c.rep.to.Inbox == "" }

// Defer takes the request's reply out of the handler's hands: whatever
// the handler returns is dropped, and the caller hears only what is later
// sent through the returned Reply. It must be called before the handler
// returns.
func (c *Ctx) Defer() Reply {
	c.deferred = true
	return c.rep
}

// Handler serves one request kind. The returned message (which may be nil
// for requests that want only an empty acknowledgement) is marshalled
// into the reply; a returned error travels as a typed *Error in its
// place. Handlers run on the goroutine that delivers the request — the
// dapplet's receive goroutine for a request off the wire — one at a
// time per served inbox, so a handler must never wait: not on a reply,
// a window, an inbox or a lock held across any of them, since the
// frames after this one, acknowledgements included, wait behind it. A
// handler whose answer waits, on a later request or on a call of its
// own, takes its reply with Ctx.Defer and answers from that later
// request's handler or from a thread (core.Dapplet.Spawn) it starts. c,
// the envelope it carries and req are all lent: valid until the handler
// returns. The server decodes the next request of req's kind over it, so
// a handler that keeps a request, or part of one, keeps a copy; a copy
// by value suffices, since a decode makes every field of a registered
// kind afresh or aliases it from the frame, never from the value it
// decodes over. A
// handler must not hand a request to its own served inbox
// (core.Dapplet.DeliverLocal): dispatches of one inbox are serialised,
// so that one would wait for it.
type Handler func(c *Ctx, req wire.Msg) (wire.Msg, error)

// Handlers maps request message kinds to their handlers: the typed
// dispatch table of one served inbox.
type Handlers map[string]Handler

// Server is one serving inbox: an inline inbox (core.Dapplet.HandleInline)
// whose arrivals are dispatched to their handlers on the goroutine that
// delivers them and answered through the svc reply protocol. It runs no
// thread.
type Server struct {
	d     *core.Dapplet
	inbox string
	h     Handlers

	// mu serialises dispatches: a request off the wire arrives on the
	// receive goroutine, but DeliverLocal (a relay delivery, a snapshot's
	// channel replay) runs one on its caller's, and ctx, rep and reqs are
	// each dispatch's in turn. No handler waits, so neither does mu.
	mu sync.Mutex
	// ctx is every request's Ctx, valid until its handler returns.
	ctx Ctx
	// rep is every answer's frame when the handler gives it, before it
	// returns; a deferred Reply sends one of its own.
	rep repMsg
	// reqs holds the requests decoded from svc frames, one value per
	// kind, each lent to its handler until it returns.
	reqs wire.BodyScratch
}

// Serve makes the named inbox, which must not exist yet, a served inbox
// on the dapplet and dispatches each arriving request to the handler
// registered for its kind, on the goroutine delivering it (see Handler).
// Correlated requests (svc frames) are answered with a reply carrying
// the handler's response or typed error; bare registered messages are
// dispatched one-way. Unknown kinds answer ErrNoHandler (correlated) or
// are dropped (bare).
func Serve(d *core.Dapplet, inbox string, h Handlers) *Server {
	s := &Server{d: d, inbox: inbox, h: h}
	d.HandleInline(inbox, s.dispatch)
	return s
}

// Ref returns the global address of the serving inbox.
func (s *Server) Ref() wire.InboxRef {
	return wire.InboxRef{Dapplet: s.d.Addr(), Inbox: s.inbox}
}

// dispatch serves one arriving envelope, which is lent, its svc frame
// included, and lends the request to its handler: a bare registered
// message is the envelope's body itself, a correlated request is decoded
// into the server's scratch. Nothing is allocated.
func (s *Server) dispatch(env *wire.Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &s.ctx
	rm, ok := env.Body.(*reqMsg)
	if !ok {
		// A bare registered message: one-way dispatch by its own kind.
		if h := s.h[env.Body.Kind()]; h != nil {
			*c = Ctx{env: env}
			_, _ = h(c, env.Body)
		}
		return
	}
	to := wire.InboxRef{Dapplet: env.FromDapplet, Inbox: rm.ReplyInbox}
	*c = Ctx{env: env, rep: Reply{d: s.d, to: to, session: env.Session, seq: rm.Seq}}
	var resp wire.Msg
	req, err := s.reqs.Decode(rm.BodyID, rm.Body)
	if err != nil {
		err = &Error{Code: CodeBadRequest, Msg: err.Error()}
	} else if h := s.h[req.Kind()]; h == nil {
		err = &Error{Code: CodeNoHandler, Msg: fmt.Sprintf("no handler for %q on %s", req.Kind(), s.inbox)}
	} else {
		resp, err = h(c, req)
	}
	// Unless answered later through Defer, owed to nobody, or silenced
	// by the handler.
	if !c.deferred && !c.OneWay() && !errors.Is(err, NoReply) {
		c.rep.sendIn(&s.rep, resp, err)
	}
	if spoilLent && req != nil {
		spoil(req)
	}
}

// spoil decodes the encoding of req's zero value over req, a lent
// request whose handler has returned and whose answer, if given, is
// sent. Race builds spoil every correlated request, so a handler that
// kept one, or a thread it handed one to, reads zeroes (and the race
// detector sees the write) instead of the next request of the kind. The
// bare path is not spoilt: a DeliverLocal caller owns the envelope's
// body.
func spoil(req wire.Msg) {
	zero := reflect.New(reflect.TypeOf(req).Elem()).Interface().(wire.Msg)
	if b, err := zero.AppendBinary(nil); err == nil {
		_ = req.UnmarshalBinary(b)
	}
}
