// Package nowait is a fixture for the nowait analyzer: code reachable
// from a transport sink, a timer callback or a //wwlint:nowait function
// must not wait.
package nowait

import (
	"sync"
	"time"

	"fixmod/transport"
)

// Node is a dapplet-like owner of a layer.
type Node struct {
	mu    sync.Mutex
	cond  *sync.Cond
	rel   *transport.Reliable
	ready chan struct{}
	work  chan func()
}

// Start wires the sink and a timer.
func (n *Node) Start() {
	n.rel = transport.NewReliable(nil, nil, n.deliver)
	time.AfterFunc(time.Second, func() {
		n.mu.Lock()
		n.cond.Wait() // want nowait:"sync.Cond.Wait waits, reached from time.AfterFunc callback"
		n.mu.Unlock()
	})
	retry := n.retry
	time.AfterFunc(time.Second, func() { n.queue(retry) })
	time.AfterFunc(time.Second, func() { n.post(n.Wait) })
}

// deliver is the sink: a send that never waits is fine, waiting for the
// window is not.
func (n *Node) deliver(b []byte) {
	_ = n.rel.Send(b)
	n.forward(b)
	select {
	case <-n.ready:
	default:
	}
	go func() { <-n.ready }() // another goroutine may wait
	later := func() { <-n.ready }
	n.work <- later
}

func (n *Node) forward(b []byte) {
	_ = n.rel.AwaitWindow() // want nowait:"AwaitWindow waits .* reached from transport.NewReliable callback → deliver → forward"
	_ = n.rel.Send(b)
	n.sendWith(n.rel.SendWait, b) // want nowait:"SendWait handed on as a function waits"
	n.sendWith(n.rel.Send, b)
}

func (n *Node) sendWith(send func([]byte) error, b []byte) { _ = send(b) }

// post hands f to a thread that may wait; the analyzer takes its word.
//
//wwlint:handoff f runs on a worker thread, where waiting is allowed
func (n *Node) post(f func()) {
	select {
	case n.work <- f:
	default:
	}
}

// queue hands f to a worker; the callback it is handed counts as run.
func (n *Node) queue(f func()) {
	select {
	case n.work <- f:
	default:
	}
}

func (n *Node) retry() {
	for range n.ready { // want nowait:"a range over a channel waits, reached from time.AfterFunc callback → queue argument → retry"
	}
}

// loop runs where nothing may wait, though no call the analyzer can see
// says so.
//
//wwlint:nowait the fixture's receive loop
func (n *Node) loop() {
	<-n.ready // want nowait:"a channel receive waits, reached from loop"
	select {  // want nowait:"a select without a default waits"
	case <-n.ready:
	case <-time.After(time.Second):
	}
	<-n.ready //wwlint:allow nowait a suppression with a reason is honoured
}

// Wait is an application entry point: it may wait.
func (n *Node) Wait() {
	<-n.ready
	n.mu.Lock()
	n.cond.Wait()
	n.mu.Unlock()
	_ = n.rel.AwaitWindow()
}
