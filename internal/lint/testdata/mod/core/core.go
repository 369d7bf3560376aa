// Package core stands in for the real core package in the nowait
// fixture: an inline inbox's func runs on the receive goroutine, and
// SendEncoded, Outbox.Send and the blocking receives wait.
package core

// Envelope is a delivered message.
type Envelope struct{ Body any }

// Dapplet owns inboxes and sends.
type Dapplet struct{}

// HandleInline runs f for each arrival on the delivering goroutine.
func (d *Dapplet) HandleInline(name string, f func(*Envelope)) {}

// Quiesce runs f while every sender of the dapplet waits.
func (d *Dapplet) Quiesce(f func(send func(to string, b []byte) error)) {}

// SendEncoded waits for the peer's window, then sends.
func (d *Dapplet) SendEncoded(to string, b []byte) error { return nil }

// TrySendEncoded never waits.
func (d *Dapplet) TrySendEncoded(to string, b []byte) error { return nil }

// Inbox queues arrivals.
type Inbox struct{}

// Receive waits for an arrival.
func (in *Inbox) Receive() (any, error) { return nil, nil }

// TryReceive never waits.
func (in *Inbox) TryReceive() (any, bool) { return nil, false }
