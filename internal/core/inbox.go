package core

import (
	"context"
	"sync"

	"repro/internal/wire"
)

// Inbox is a message queue with a global address (§3.2). A dapplet removes
// messages from the head; the distributed layer appends messages arriving
// on the inbox's incoming channels. Receive suspends until the inbox is
// non-empty and removes the head, as in the paper; Len reports the queue
// length. Context-bounded and non-blocking variants are provided as
// conveniences, as is access to the full envelope (sender, session and
// logical timestamp).
type Inbox struct {
	d    *Dapplet
	name string
	// inline, set at creation and never changed, takes each arrival on
	// the delivering goroutine instead of the queue (Dapplet.NewInlineInbox,
	// Dapplet.HandleInline).
	inline func(*wire.Envelope)

	mu     sync.Mutex
	cond   *sync.Cond
	q      []*wire.Envelope // guarded by mu; q[head:] is queued, q[:head] is nil
	head   int              // guarded by mu
	closed bool             // guarded by mu
}

func newInbox(d *Dapplet, name string) *Inbox {
	in := &Inbox{d: d, name: name}
	in.cond = sync.NewCond(&in.mu)
	return in
}

// Name returns the inbox's name within its dapplet.
func (in *Inbox) Name() string { return in.name }

// Ref returns the inbox's global address: the dapplet's address plus the
// inbox name. Refs can be communicated between dapplets and bound into
// outboxes.
func (in *Inbox) Ref() wire.InboxRef {
	return wire.InboxRef{Dapplet: in.d.Addr(), Inbox: in.name}
}

// push appends an envelope, never blocking: see DeliverLocal. An inline
// inbox hands it to its func instead, unless the inbox is closed.
func (in *Inbox) push(env *wire.Envelope) {
	if in.inline != nil {
		in.mu.Lock()
		closed := in.closed
		in.mu.Unlock()
		if !closed {
			in.inline(env)
		}
		return
	}
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	if len(in.q) == cap(in.q) && in.head >= len(in.q)/2 {
		// Full, and at least half of it consumed: slide the queued tail
		// down instead of growing the array.
		n := copy(in.q, in.q[in.head:])
		clear(in.q[n:])
		in.q, in.head = in.q[:n], 0
	}
	in.q = append(in.q, env)
	in.mu.Unlock()
	in.cond.Broadcast()
}

func (in *Inbox) close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	in.cond.Broadcast()
}

// Len returns the number of queued messages.
func (in *Inbox) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.lenLocked()
}

// lenLocked is the number of queued messages. Caller holds in.mu.
func (in *Inbox) lenLocked() int { return len(in.q) - in.head }

// popLocked removes and returns the head message, which must exist. The
// vacated slot is cleared so the inbox does not keep a consumed envelope
// alive, and an emptied queue restarts at the front of its array, so an
// idle channel reuses one slot forever. Caller holds in.mu.
func (in *Inbox) popLocked() *wire.Envelope {
	env := in.q[in.head]
	in.q[in.head] = nil
	in.head++
	if in.head == len(in.q) {
		in.q, in.head = in.q[:0], 0
	}
	return env
}

// Receive suspends execution until the inbox is non-empty, then removes
// and returns the message at the head.
func (in *Inbox) Receive() (wire.Msg, error) {
	env, err := in.ReceiveEnvelope()
	if err != nil {
		return nil, err
	}
	return env.Body, nil
}

// ReceiveEnvelope is Receive but returns the full envelope, exposing the
// sender's address and outbox, the session tag and the logical timestamp.
func (in *Inbox) ReceiveEnvelope() (*wire.Envelope, error) {
	return in.ReceiveEnvelopeContext(context.Background()) //wwlint:allow ctxcheck unbounded receive by contract; ReceiveEnvelopeContext is the bounded form
}

// ReceiveContext is Receive bounded by a context: it returns ctx.Err()
// (context.Canceled or context.DeadlineExceeded) when the context ends
// before a message arrives. It is the primary bounded receive; every
// blocking call in the public surface takes a context the same way.
func (in *Inbox) ReceiveContext(ctx context.Context) (wire.Msg, error) {
	env, err := in.ReceiveEnvelopeContext(ctx)
	if err != nil {
		return nil, err
	}
	return env.Body, nil
}

// ReceiveEnvelopeContext is ReceiveContext but returns the full envelope.
func (in *Inbox) ReceiveEnvelopeContext(ctx context.Context) (*wire.Envelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.lenLocked() == 0 && ctx.Done() != nil {
		// About to wait: the end of ctx must wake this call. A queued
		// message is taken without registering, which would allocate.
		// The broadcast takes the lock, so a waiter is either still before
		// its Wait (and re-checks ctx.Err) or inside it (and is woken).
		stop := context.AfterFunc(ctx, func() {
			in.mu.Lock()
			in.cond.Broadcast()
			in.mu.Unlock()
		})
		defer stop()
	}
	for in.lenLocked() == 0 {
		if in.closed {
			return nil, ErrStopped
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in.cond.Wait()
	}
	return in.popLocked(), nil
}

// TryReceive removes and returns the head message without blocking,
// reporting whether one was available.
func (in *Inbox) TryReceive() (wire.Msg, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.lenLocked() == 0 {
		return nil, false
	}
	return in.popLocked().Body, true
}
