package core

import (
	"errors"
	"slices"
	"sync"

	"repro/internal/wire"
)

// Outbox is a message source bound to a set of destination inboxes (§3.2).
// Send transmits a copy of the message along the directed FIFO channel to
// every bound inbox. The method set follows the paper exactly:
//
//   - Add appends an inbox address to the binding list if not present.
//   - Delete removes an address, returning an error (the paper's
//     exception) if it is not in the list.
//   - Send sends a copy of the message along each channel.
//   - Destinations returns the binding list.
type Outbox struct {
	d    *Dapplet
	name string

	mu sync.Mutex
	// dests is copy-on-write: Add and Delete publish a new slice
	// and never write into one already published, so Send reads it under
	// the lock and walks it after the unlock without copying.
	dests   []wire.InboxRef // guarded by mu
	session string          // guarded by mu; session tag applied to outgoing envelopes
	mcast   Multicaster     // guarded by mu; when set, Send delegates instead of flat fan-out
}

// Multicaster dispatches one stamped message to a session's membership by
// some strategy other than the outbox's flat per-destination loop — the
// relay tree (internal/relay) implements it. Multicast receives the
// sending outbox's name, the session tag, and the already-taken Lamport
// stamp; it must encode the body at most once and is responsible for
// reaching every participant. It runs on the sender's thread and may
// wait for a neighbour's window, as Send does.
type Multicaster interface {
	Multicast(outbox, session string, lamport uint64, msg wire.Msg) error
}

func newOutbox(d *Dapplet, name string) *Outbox {
	return &Outbox{d: d, name: name}
}

// Add appends the inbox address to the binding list if it is not already
// on the list; a FIFO channel to that inbox comes into existence.
func (o *Outbox) Add(ref wire.InboxRef) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.boundLocked(ref) {
		return
	}
	o.dests = append(o.dests[:len(o.dests):len(o.dests)], ref)
}

// Delete removes the inbox address from the binding list, or returns
// ErrNotBound if it is not in the list.
func (o *Outbox) Delete(ref wire.InboxRef) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, d := range o.dests {
		if d == ref {
			o.dests = append(o.dests[:i:i], o.dests[i+1:]...)
			return nil
		}
	}
	return ErrNotBound
}

// Destinations returns a copy of the binding list.
func (o *Outbox) Destinations() []wire.InboxRef {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]wire.InboxRef(nil), o.dests...)
}

// SetSession tags future sends with a session id; sessions call this when
// they bind the outbox.
func (o *Outbox) SetSession(id string) {
	o.mu.Lock()
	o.session = id
	o.mu.Unlock()
}

// SetMulticast installs (or, with nil, removes) a multicast strategy.
// While set, Send hands each message to the strategy instead of fanning
// out to the binding list; the binding list itself is unaffected.
func (o *Outbox) SetMulticast(m Multicaster) {
	o.mu.Lock()
	o.mcast = m
	o.mu.Unlock()
}

// Send transmits a copy of msg along every channel connected to the
// outbox. The message is stamped with the dapplet's logical clock (§4.2).
// Send waits only on flow control (each peer's full window, before the
// message is sequenced to it, a Multicaster's neighbours included), never
// on the receiving application; a frame the transport gives up on after
// its retry budget is counted in the transport's Stats (Failures).
func (o *Outbox) Send(msg wire.Msg) error {
	o.mu.Lock()
	if m := o.mcast; m != nil {
		session := o.session
		// Stamp under the lock so concurrent sends through this outbox
		// reach the multicaster with stamps in a definite order.
		lamport := o.d.clock.StampSend()
		o.mu.Unlock()
		return m.Multicast(o.name, session, lamport, msg)
	}
	dests := o.dests
	session := o.session
	o.mu.Unlock()

	if len(dests) == 0 {
		return nil
	}
	// Marshal the body exactly once; each destination re-encodes only the
	// envelope header words (destination and Lamport stamp) around the
	// shared encoded bytes.
	body, err := wire.EncodeBody(msg)
	if err != nil {
		return err
	}
	defer body.Release()
	var errs []error
	for _, ref := range dests {
		env := wire.Envelope{
			To:          ref,
			FromDapplet: o.d.Addr(),
			FromOutbox:  o.name,
			Session:     session,
			Body:        msg,
		}
		if err := o.d.sendWait(&env, body); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// boundLocked reports whether ref is in the binding list. Caller holds
// o.mu.
func (o *Outbox) boundLocked(ref wire.InboxRef) bool {
	return slices.Contains(o.dests, ref)
}
