package nowait

import (
	"context"

	"fixmod/core"
	"fixmod/directory"
	"fixmod/gossip"
	"fixmod/svc"
)

// Service serves a handler table and a rumour topic.
type Service struct {
	d      *core.Dapplet
	caller *svc.Caller
	g      *gossip.Engine
	dir    *directory.Client
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
			return nil, s.caller.Call(context.TODO(), "peer", req) // want nowait:"Caller.Call waits until its context ends, reached from svc.Serve callback"
		},
		"where": s.where,
	})
	s.g.OnRumor("topic", s.onRumor)
}

func (s *Service) ask(c *svc.Ctx, req any) (any, error) {
	return nil, s.caller.Call(context.TODO(), "peer", req) // want nowait:"Caller.Call waits until its context ends, reached from svc.Serve callback → ask"
}

// where answers from the directory client's cache, which never waits,
// and may not fall back on a lookup: a context-first call into another
// package of the module waits, though no list names it. A context-first
// call outside the module, or within the package, is judged by its
// body, when there is one to scan.
func (s *Service) where(c *svc.Ctx, req any) (any, error) {
	if addr, ok := s.dir.Cached("peer"); ok {
		return addr, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	check(ctx)
	return s.dir.Lookup(ctx, "peer") // want nowait:"Client.Lookup waits until its context ends, reached from svc.Serve callback → where"
}

func check(ctx context.Context) { _ = ctx.Err() }

// onRumor may forward a rumour but not originate one: Broadcast waits.
func (s *Service) onRumor(origin string, body any) {
	_ = s.g.Broadcast("topic", body) // want nowait:"Engine.Broadcast waits for each peer's window, reached from gossip.OnRumor callback → onRumor"
}

// Refute runs on an application thread: it may wait.
func (s *Service) Refute(body any) {
	_ = s.g.Broadcast("topic", body)
	_ = s.caller.Call(context.TODO(), "peer", body)
	_, _ = s.dir.Lookup(context.TODO(), "peer")
}
