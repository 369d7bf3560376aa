// Package svc is the typed, context-first request/response framework the
// control planes are built on. The paper's model gives dapplets only
// asynchronous channels ("Synchronous RPCs are implemented as pairwise
// asynchronous RPCs", §3.2); every service that grew on top of it — rpc,
// the session service, the "@dir" directory, the "@fail" detector, the
// token allocator, the barrier and register services — used to hand-roll
// the same pairing loop with its own sequence numbers, reply inboxes and
// deadline convention. svc factors that loop out once:
//
//   - Serve(d, inbox, handlers) makes a service inbox an inline inbox
//     and dispatches each request to the handler registered for its
//     message kind. A correlated request arrives wrapped in an svc frame
//     carrying the caller's sequence number and reply inbox; a bare
//     registered message on the same inbox is dispatched one-way
//     (heartbeats, aborts). Handlers run on the goroutine that delivers
//     the request — the dapplet's receive goroutine for a request off
//     the wire, the caller's for DeliverLocal — one at a time per served
//     inbox, and a server runs no thread. So a handler must never wait:
//     not on a reply, a window, an inbox or a lock held across one. A
//     handler whose answer waits takes its Reply with Ctx.Defer: on a
//     later request (a queued token request, a barrier's early arrivals)
//     it answers from that request's handler; on a call of its own (the
//     failure detector's indirect probe) or on application code (an rpc
//     method) it answers from a thread (core.Dapplet.Spawn). The *Ctx a
//     handler gets, its envelope and its request are lent, valid until
//     it returns: a correlated request is decoded into the server's
//     scratch (a wire.BodyScratch, one value per kind, decoded over by
//     the next request of the kind), a bare one is the envelope's body,
//     and an answer given before the handler returns is framed in the
//     server's own reply frame, so a served request allocates nothing. A
//     handler that keeps a request copies what it keeps (the token
//     allocator's and an rpc object's queues hold copies by value); race
//     builds spoil each correlated request once its handler returns, so
//     one kept by mistake reads zeroes.
//   - Caller owns a private reply inbox and matches responses to calls by
//     correlation id. Call blocks under a context.Context — cancellation
//     and deadlines work uniformly, returning context.Canceled or
//     context.DeadlineExceeded rather than per-service timeout errors.
//     Send/Await split one call into transmit-now/await-later, with
//     Pending.OnLate catching a reply that lands after Await gave up, and
//     CallFirst fans a request to replicas and returns on the first
//     success (the replicated-directory write pattern). Replies are
//     matched on the dapplet's receive goroutine, which wakes the
//     waiting Await directly: a Caller runs no goroutine of its own.
//     OnNotify callbacks run on that goroutine too and must never wait;
//     an OnLate callback runs on Await's goroutine or on a dapplet
//     thread of its own, never there.
//   - Handler errors travel as typed values: an *Error's code survives
//     the wire, so callers dispatch on errors.Is/errors.As instead of
//     parsing strings. Codes at or above CodeUser are reserved for the
//     application protocol riding on svc.
//
// The wire format nests the application message inside the svc frame via
// wire.EncodeBody/DecodeBody (dense kind id + payload), so a
// request type needs no svc-specific fields — see DESIGN.md's "Service
// framework" section for the exact layout and the old→new migration
// table.
package svc
