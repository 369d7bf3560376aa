package netsim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTimeout is returned by RecvTimeout when the deadline passes.
var ErrTimeout = errors.New("netsim: receive timeout")

// Datagram is one unreliable message in flight. VSent and VArrive are
// virtual timestamps (see the package comment).
type Datagram struct {
	From, To Addr
	Payload  []byte
	VSent    time.Duration
	VArrive  time.Duration
}

// Host is a named machine on the network; dapplets bind ports on it.
// A host is owned by exactly one delivery shard; its port table is
// guarded by that shard's lock.
type Host struct {
	net      *Network
	shard    *shard
	name     string
	ports    map[uint16]*Endpoint
	nextPort uint16
}

// Bind creates an endpoint on the given port. It fails with ErrPortInUse
// if the port is taken and ErrClosed if the network is shut down.
func (h *Host) Bind(port uint16) (*Endpoint, error) {
	return h.bind(port, h.net.cfg.queueCap)
}

func (h *Host) bind(port uint16, queueCap int) (*Endpoint, error) {
	if queueCap <= 0 {
		queueCap = h.net.cfg.queueCap
	}
	h.shard.mu.Lock()
	defer h.shard.mu.Unlock()
	if h.net.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := h.ports[port]; ok {
		return nil, ErrPortInUse
	}
	e := &Endpoint{
		net:    h.net,
		host:   h,
		addr:   Addr{Host: h.name, Port: port},
		queue:  make(chan Datagram, queueCap),
		closed: make(chan struct{}),
	}
	h.ports[port] = e
	return e, nil
}

// BindAny binds the next free ephemeral port.
func (h *Host) BindAny() (*Endpoint, error) {
	return h.BindAnyQueue(0)
}

// BindAnyQueue is BindAny with a per-endpoint receive queue capacity
// (0 selects the network's configured default). The queue backs each
// endpoint with a preallocated channel, so at swarm scale — hundreds of
// thousands of mostly idle endpoints — the default capacity dominates
// per-dapplet memory; swarm members bind small queues.
func (h *Host) BindAnyQueue(queueCap int) (*Endpoint, error) {
	h.shard.mu.Lock()
	var port uint16
	for {
		port = h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 40000
		}
		if _, ok := h.ports[port]; !ok {
			break
		}
	}
	h.shard.mu.Unlock()
	return h.bind(port, queueCap)
}

func (h *Host) closeAll() {
	h.shard.mu.Lock()
	eps := make([]*Endpoint, 0, len(h.ports))
	for _, e := range h.ports {
		eps = append(eps, e)
	}
	h.shard.mu.Unlock()
	for _, e := range eps {
		e.Close()
	}
}

// Endpoint is a bound, unreliable datagram socket on a simulated host.
// It is safe for concurrent use.
type Endpoint struct {
	net   *Network
	host  *Host
	addr  Addr
	queue chan Datagram

	closeOnce sync.Once
	closed    chan struct{}

	// rcache remembers the last resolved destination so repeat sends to
	// the same peer skip the host/link/port map lookups. A shard version
	// bump (link change, endpoint close) invalidates it.
	rcache atomic.Pointer[routeEntry]

	vnow atomic.Int64 // virtual clock, as time.Duration
}

// Addr returns the endpoint's global address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Send transmits payload to the destination address. Delivery is
// unreliable: the datagram may be dropped, duplicated, reordered or
// arbitrarily delayed according to the link's parameters. Send never
// blocks on the receiver.
func (e *Endpoint) Send(to Addr, payload []byte) error {
	select {
	case <-e.closed:
		return ErrClosed
	default:
	}
	return e.net.route(e, to, payload)
}

// Recv blocks until a datagram arrives or the endpoint is closed, and
// advances the endpoint's virtual clock to the datagram's arrival stamp.
//
// Ownership: the returned datagram's Payload is an exclusively owned
// copy — the network neither retains nor writes to it after delivery
// (duplicated datagrams are delivered with independent copies), so the
// receiver may retain or mutate it without copying.
//
//wwlint:allow ctxcheck datagram-layer pump with close semantics; the context-first surface is core.Inbox.ReceiveContext
func (e *Endpoint) Recv() (Datagram, error) {
	select {
	case dg := <-e.queue:
		e.observe(dg.VArrive)
		return dg, nil
	case <-e.closed:
		// Drain anything already queued before reporting closure.
		select {
		case dg := <-e.queue:
			e.observe(dg.VArrive)
			return dg, nil
		default:
			return Datagram{}, ErrClosed
		}
	}
}

// RecvTimeout is Recv with a real-time deadline.
//
//wwlint:allow ctxcheck real-time deadline variant of the datagram pump; the context-first surface is core.Inbox.ReceiveContext
func (e *Endpoint) RecvTimeout(d time.Duration) (Datagram, error) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case dg := <-e.queue:
		e.observe(dg.VArrive)
		return dg, nil
	case <-e.closed:
		select {
		case dg := <-e.queue:
			e.observe(dg.VArrive)
			return dg, nil
		default:
			return Datagram{}, ErrClosed
		}
	case <-t.C:
		return Datagram{}, ErrTimeout
	}
}

// VNow returns the endpoint's current virtual time.
func (e *Endpoint) VNow() time.Duration {
	return time.Duration(e.vnow.Load())
}

// observe advances the clock to v if v is ahead (max-merge, lock-free).
func (e *Endpoint) observe(v time.Duration) {
	for {
		cur := e.vnow.Load()
		if int64(v) <= cur || e.vnow.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// Close releases the endpoint's port and unblocks any pending Recv.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.host.shard.mu.Lock()
		delete(e.host.ports, e.addr.Port)
		// Invalidate route caches pointing at this endpoint.
		e.host.shard.version++
		e.host.shard.mu.Unlock()
		close(e.closed)
	})
	return nil
}
