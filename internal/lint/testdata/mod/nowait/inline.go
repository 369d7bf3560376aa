package nowait

import "fixmod/core"

// Relay forwards frames from an inline inbox.
type Relay struct {
	d  *core.Dapplet
	in *core.Inbox
}

// Attach registers the relay's inline handler.
func (r *Relay) Attach() {
	r.d.HandleInline("@relay", r.onFrame)
}

// onFrame runs on the receive goroutine: a send that never waits is
// fine; core's waits, called or handed on, are not.
func (r *Relay) onFrame(env *core.Envelope) {
	_ = r.d.ForwardEncoded("kid", nil)
	_ = r.d.SendEncoded("kid", nil) // want nowait:"Dapplet.SendEncoded waits, reached from core.HandleInline callback"
	r.flood(r.d.SendEncoded)        // want nowait:"Dapplet.SendEncoded handed on as a function waits"
	r.flood(r.d.ForwardEncoded)
	_, _ = r.in.TryReceive()
	_, _ = r.in.Receive() // want nowait:"Inbox.Receive waits"
}

func (r *Relay) flood(send func(string, []byte) error) { _ = send("kid", nil) }

// Record runs f under Quiesce: it sends with the send it is handed and
// must not wait.
func (r *Relay) Record() {
	r.d.Quiesce(func(send func(string, []byte) error) {
		_ = send("kid", nil)
		_ = r.d.SendEncoded("kid", nil) // want nowait:"Dapplet.SendEncoded waits, reached from core.Quiesce callback"
	})
}

// Multicast runs on an application thread: it may wait.
func (r *Relay) Multicast() {
	_ = r.d.SendEncoded("kid", nil)
	r.flood(r.d.SendEncoded)
}
