package transport

import (
	"errors"

	"repro/internal/netsim"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: closed")

// PacketConn is an unreliable, unordered datagram socket: the lowest layer
// of the stack. Datagrams may be dropped, duplicated, reordered or delayed.
type PacketConn interface {
	// LocalAddr returns the bound address of this socket.
	LocalAddr() netsim.Addr
	// WriteTo sends one datagram and never waits: not on the receiver and
	// not on a queue of its own, since the receive goroutine writes acks
	// through it. It is done with p when it returns, so the caller may
	// reuse the slice immediately.
	WriteTo(to netsim.Addr, p []byte) error
	// ReadFrom blocks until a datagram arrives or the socket is closed.
	// Ownership contract: the returned slice is owned by the caller —
	// the implementation neither retains nor writes to it after return
	// (netsim hands each delivery its own copy; the UDP transport reads
	// into a fresh buffer per datagram), so callers may retain or mutate
	// it without copying.
	ReadFrom() (p []byte, from netsim.Addr, err error)
	// Close releases the socket and unblocks pending reads.
	Close() error
}

// simConn adapts a netsim.Endpoint to PacketConn.
type simConn struct{ ep *netsim.Endpoint }

// NewSimConn wraps a simulated endpoint as a PacketConn.
func NewSimConn(ep *netsim.Endpoint) PacketConn { return &simConn{ep: ep} }

func (c *simConn) LocalAddr() netsim.Addr { return c.ep.Addr() }

func (c *simConn) WriteTo(to netsim.Addr, p []byte) error {
	err := c.ep.Send(to, p)
	if errors.Is(err, netsim.ErrClosed) {
		return ErrClosed
	}
	return err
}

func (c *simConn) ReadFrom() ([]byte, netsim.Addr, error) {
	dg, err := c.ep.Recv()
	if err != nil {
		if errors.Is(err, netsim.ErrClosed) {
			return nil, netsim.Addr{}, ErrClosed
		}
		return nil, netsim.Addr{}, err
	}
	return dg.Payload, dg.From, nil
}

func (c *simConn) Close() error { return c.ep.Close() }

// Endpoint exposes the underlying simulated endpoint of a sim-backed
// PacketConn, or nil for other transports. Benchmarks use it to read
// virtual clocks.
func Endpoint(pc PacketConn) *netsim.Endpoint {
	if sc, ok := pc.(*simConn); ok {
		return sc.ep
	}
	return nil
}
