package svc

import (
	"errors"
	"fmt"

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
// correlated requests, the reply owed to the caller. A *Ctx is valid
// until its handler returns: the server reuses it for the next request,
// so a handler that answers later keeps the Reply from Defer, not c, and
// a thread it starts copies what it needs from c first.
type Ctx struct {
	env      *wire.Envelope
	rep      Reply
	deferred bool
}

// Reply is the answer owed to one correlated request. A handler that
// cannot answer yet takes it with Ctx.Defer and sends it later, typically
// from the handler of a later request: a barrier answers its early
// arrivals when the last one comes in.
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
	if r.to.Inbox == "" {
		return
	}
	rep := &repMsg{Seq: r.seq}
	if err == nil && resp != nil {
		body, eerr := wire.EncodeBody(resp)
		if eerr == nil {
			// SendDirect copies the reply (body bytes included) into its
			// own transmit frame before returning, so the encode buffer
			// can be released right after.
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
}

// Envelope returns the request's delivery envelope.
func (c *Ctx) Envelope() *wire.Envelope { return c.env }

// From returns the requesting dapplet's global address, as the transport saw it.
func (c *Ctx) From() netsim.Addr { return c.env.FromDapplet }

// Session returns the session tag the request travelled under.
func (c *Ctx) Session() string { return c.env.Session }

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
// place. Handlers run on the server's dispatch thread, one at a time,
// and should not block indefinitely; one whose answer waits on a later
// request takes its reply with Ctx.Defer instead. c is valid until the
// handler returns.
type Handler func(c *Ctx, req wire.Msg) (wire.Msg, error)

// Handlers maps request message kinds to their handlers: the typed
// dispatch table of one served inbox.
type Handlers map[string]Handler

// Server is one serving inbox: a dispatch thread consuming requests and
// answering through the svc reply protocol.
type Server struct {
	d     *core.Dapplet
	inbox string
	h     Handlers
	// ctx is every request's Ctx in turn: dispatch runs on one thread and
	// a Ctx lives only until its handler returns.
	ctx Ctx
}

// Serve consumes the named inbox on the dapplet and dispatches each
// arriving request to the handler registered for its kind. Correlated
// requests (svc frames) are answered with a reply carrying the handler's
// response or typed error; bare registered messages are dispatched
// one-way. Unknown kinds answer ErrNoHandler (correlated) or are dropped
// (bare).
func Serve(d *core.Dapplet, inbox string, h Handlers) *Server {
	s := &Server{d: d, inbox: inbox, h: h}
	d.Handle(inbox, s.dispatch)
	return s
}

// Ref returns the global address of the serving inbox.
func (s *Server) Ref() wire.InboxRef {
	return wire.InboxRef{Dapplet: s.d.Addr(), Inbox: s.inbox}
}

// dispatch serves one arriving envelope.
func (s *Server) dispatch(env *wire.Envelope) {
	rm, ok := env.Body.(*reqMsg)
	if !ok {
		// A bare registered message: one-way dispatch by its own kind.
		if h := s.h[env.Body.Kind()]; h != nil {
			s.ctx = Ctx{env: env}
			_, _ = h(&s.ctx, env.Body)
		}
		return
	}
	to := wire.InboxRef{Dapplet: env.FromDapplet, Inbox: rm.ReplyInbox}
	c := &s.ctx
	*c = Ctx{env: env, rep: Reply{d: s.d, to: to, session: env.Session, seq: rm.Seq}}
	var resp wire.Msg
	req, err := wire.DecodeBody(rm.BodyID, rm.Body)
	if err != nil {
		err = &Error{Code: CodeBadRequest, Msg: err.Error()}
	} else if h := s.h[req.Kind()]; h == nil {
		err = &Error{Code: CodeNoHandler, Msg: fmt.Sprintf("no handler for %q on %s", req.Kind(), s.inbox)}
	} else {
		resp, err = h(c, req)
	}
	if c.deferred || errors.Is(err, NoReply) {
		return // answered later through Defer, or the handler elected silence
	}
	c.rep.Send(resp, err)
}
