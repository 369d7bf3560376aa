package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
)

// MaxDatagram is the largest datagram the UDP transport will send.
const MaxDatagram = 60000

// resolveCacheCap caps the peer address-resolution cache, evicting oldest
// first. Reincarnation churn lands peers on fresh ports indefinitely, so
// the cache must not grow with the lifetime peer count.
const resolveCacheCap = 1024

// udpBufPool recycles the max-size buffers reads land in, so the
// steady-state allocation per datagram is the exact-size copy handed to
// the caller, not a 60KB scratch.
var udpBufPool = sync.Pool{New: func() any {
	b := make([]byte, MaxDatagram+1)
	return &b
}}

// udpConn adapts a real *net.UDPConn to PacketConn: one datagram per
// syscall each way. Host names in netsim.Addr are IP literals (or
// resolvable names) for this transport.
type udpConn struct {
	conn  *net.UDPConn
	local netsim.Addr

	mu        sync.Mutex
	cache     map[netsim.Addr]*net.UDPAddr
	cacheFIFO []netsim.Addr

	// lastFrom is the last datagram's sender and its netsim.Addr, so a
	// run of datagrams from one peer formats the address once.
	lastFrom atomic.Pointer[fromMemo]

	readCalls  atomic.Uint64
	writeCalls atomic.Uint64
}

// ListenUDP binds a real UDP socket on the given address, e.g.
// "127.0.0.1:0" to pick an ephemeral loopback port.
func ListenUDP(addr string) (PacketConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	// Default kernel socket buffers (~200KB) overflow under a full send
	// window of small datagrams; best-effort enlarge them. The kernel
	// clamps to its rmem_max/wmem_max, so failures are ignorable.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	la := conn.LocalAddr().(*net.UDPAddr)
	return &udpConn{
		conn:  conn,
		local: netsim.Addr{Host: la.IP.String(), Port: uint16(la.Port)},
		cache: make(map[netsim.Addr]*net.UDPAddr),
	}, nil
}

func (c *udpConn) LocalAddr() netsim.Addr { return c.local }

// IOStats reports the socket's syscall-level counters.
func (c *udpConn) IOStats() IOStats {
	return IOStats{ReadCalls: c.readCalls.Load(), WriteCalls: c.writeCalls.Load()}
}

// resolve maps a transport address to a UDP address through a bounded
// cache: at capacity the oldest entry is evicted, so long-lived conns
// talking to an unbounded succession of reincarnated peers hold at most
// resolveCacheCap entries.
func (c *udpConn) resolve(to netsim.Addr) (*net.UDPAddr, error) {
	c.mu.Lock()
	ua, ok := c.cache[to]
	c.mu.Unlock()
	if ok {
		return ua, nil
	}
	ua, err := net.ResolveUDPAddr("udp", to.String())
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, dup := c.cache[to]; !dup {
		if len(c.cache) >= resolveCacheCap {
			old := c.cacheFIFO[0]
			c.cacheFIFO = c.cacheFIFO[1:]
			delete(c.cache, old)
		}
		c.cache[to] = ua
		c.cacheFIFO = append(c.cacheFIFO, to)
	}
	c.mu.Unlock()
	return ua, nil
}

// WriteTo transmits one datagram with one syscall.
func (c *udpConn) WriteTo(to netsim.Addr, p []byte) error {
	if len(p) > MaxDatagram {
		return fmt.Errorf("transport: datagram of %d bytes exceeds max %d", len(p), MaxDatagram)
	}
	ua, err := c.resolve(to)
	if err != nil {
		return err
	}
	if _, err := c.conn.WriteToUDP(p, ua); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return err
	}
	c.writeCalls.Add(1)
	return nil
}

// fromMemo pairs a sender's socket address with its netsim.Addr.
type fromMemo struct {
	ap   netip.AddrPort
	addr netsim.Addr
}

// fromAddr returns the sender's netsim.Addr. The host prints as net.IP
// does: a v4 or v4-mapped address as a dotted quad, with no zone. It is
// formatted only when the sender differs from the last one's.
func (c *udpConn) fromAddr(ap netip.AddrPort) netsim.Addr {
	if m := c.lastFrom.Load(); m != nil && m.ap == ap {
		return m.addr
	}
	m := &fromMemo{ap: ap, addr: netsim.Addr{
		Host: ap.Addr().Unmap().WithZone("").String(),
		Port: ap.Port(),
	}}
	c.lastFrom.Store(m)
	return m.addr
}

// ReadFrom reads one datagram with one syscall into a pooled buffer.
// The returned slice is a fresh exact-size copy owned by the caller (the
// ownership contract of PacketConn.ReadFrom); the buffer goes back to
// the pool before return.
func (c *udpConn) ReadFrom() ([]byte, netsim.Addr, error) {
	bp := udpBufPool.Get().(*[]byte)
	n, ap, err := c.conn.ReadFromUDPAddrPort(*bp)
	if err != nil {
		udpBufPool.Put(bp)
		if errors.Is(err, net.ErrClosed) {
			return nil, netsim.Addr{}, ErrClosed
		}
		return nil, netsim.Addr{}, err
	}
	c.readCalls.Add(1)
	out := make([]byte, n)
	copy(out, (*bp)[:n])
	udpBufPool.Put(bp)
	return out, c.fromAddr(ap), nil
}

func (c *udpConn) Close() error { return c.conn.Close() }
