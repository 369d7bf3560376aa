package nowait

import (
	"fixmod/core"
	"fixmod/gossip"
	"fixmod/svc"
)

// Service serves a handler table and a rumour topic.
type Service struct {
	d      *core.Dapplet
	caller *svc.Caller
	g      *gossip.Engine
}

// Attach registers the handlers: each table entry, a method or a
// literal, runs where nothing may wait.
func (s *Service) Attach() {
	svc.Serve(s.d, "@svc", svc.Handlers{
		"ask": s.ask,
		"tell": func(c *svc.Ctx, req any) (any, error) {
			return nil, s.caller.Cast("peer", req)
		},
		"relay": func(c *svc.Ctx, req any) (any, error) {
			return nil, s.caller.Call("peer", req) // want nowait:"Caller.Call waits, reached from svc.Serve callback"
		},
	})
	s.g.OnRumor("topic", s.onRumor)
}

func (s *Service) ask(c *svc.Ctx, req any) (any, error) {
	return nil, s.caller.Call("peer", req) // want nowait:"Caller.Call waits, reached from svc.Serve callback → ask"
}

// onRumor may forward a rumour but not originate one: Broadcast waits.
func (s *Service) onRumor(origin string, body any) {
	_ = s.g.Broadcast("topic", body) // want nowait:"Engine.Broadcast waits for each peer's window, reached from gossip.OnRumor callback → onRumor"
}

// Refute runs on an application thread: it may wait.
func (s *Service) Refute(body any) {
	_ = s.g.Broadcast("topic", body)
	_ = s.caller.Call("peer", body)
}
