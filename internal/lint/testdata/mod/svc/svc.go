// Package svc stands in for the real svc package in the nowait fixture:
// a served inbox's handlers run on the goroutine that delivers the
// request, and a Caller's Call waits for its reply.
package svc

import (
	"context"

	"fixmod/core"
)

// Ctx is one request's delivery context.
type Ctx struct{}

// Handler serves one request kind.
type Handler func(c *Ctx, req any) (any, error)

// Handlers is a served inbox's dispatch table.
type Handlers map[string]Handler

// Server is one served inbox.
type Server struct{}

// Serve dispatches the inbox's arrivals to h on the delivering goroutine.
func Serve(d *core.Dapplet, inbox string, h Handlers) *Server { return nil }

// Caller issues requests.
type Caller struct{}

// Call sends req and waits for the reply, or for ctx to end.
func (c *Caller) Call(ctx context.Context, to string, req any) error { return nil }

// Cast sends req one-way; it never waits.
func (c *Caller) Cast(to string, req any) error { return nil }
