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

// UDPConfig tunes the real-UDP transport. Zero values select defaults.
type UDPConfig struct {
	// Batch enables the sendmmsg/recvmmsg syscall-batching loops with
	// this many datagrams per syscall (clamped to 64); 0 or 1 selects
	// the classic one-syscall-per-datagram path. On platforms without
	// the mmsg syscalls (or when the kernel rejects them at runtime)
	// batch mode degrades to single-packet syscalls with identical
	// semantics. In batch mode WriteTo is asynchronous: datagrams are
	// queued to a sender goroutine and transmission errors are dropped,
	// as a lost datagram would be.
	Batch int
}

// resolveCacheCap caps the peer address-resolution cache, evicting oldest
// first. Reincarnation churn lands peers on fresh ports indefinitely, so
// the cache must not grow with the lifetime peer count.
const resolveCacheCap = 1024

func (c UDPConfig) withDefaults() UDPConfig {
	c.Batch = min(max(c.Batch, 0), 64)
	return c
}

// udpBufPool recycles max-size datagram buffers across reads and queued
// batch-mode writes, so the steady-state allocation per datagram is the
// exact-size payload copy handed to the caller, not a 60KB scratch.
var udpBufPool = sync.Pool{New: func() any {
	b := make([]byte, MaxDatagram+1)
	return &b
}}

// rxDatagram is one received-but-undelivered datagram from a batch read.
type rxDatagram struct {
	buf  []byte
	from netsim.Addr
}

// txDatagram is one queued batch-mode write; buf is pooled, n its fill.
type txDatagram struct {
	to  *net.UDPAddr
	buf *[]byte
	n   int
}

// udpConn adapts a real *net.UDPConn to PacketConn. Host names in
// netsim.Addr are IP literals (or resolvable names) for this transport.
type udpConn struct {
	conn  *net.UDPConn
	local netsim.Addr
	cfg   UDPConfig

	mu        sync.Mutex
	cache     map[netsim.Addr]*net.UDPAddr
	cacheFIFO []netsim.Addr

	// lastFrom is the last datagram's sender and its netsim.Addr, so a
	// run of datagrams from one peer formats the address once.
	lastFrom atomic.Pointer[fromMemo]

	readCalls    atomic.Uint64
	writeCalls   atomic.Uint64
	datagramsIn  atomic.Uint64
	datagramsOut atomic.Uint64

	// Batch mode (cfg.Batch > 1). readMu serializes batch reads; pend
	// holds datagrams received in the last batch syscall and not yet
	// popped by ReadFrom.
	mmsg     *mmsgState
	readMu   sync.Mutex
	pend     []rxDatagram
	pendHead int

	sendq     chan txDatagram
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// ListenUDP binds a real UDP socket on the given address, e.g.
// "127.0.0.1:0" to pick an ephemeral loopback port, with default
// configuration (single-packet syscalls, pooled read buffers).
func ListenUDP(addr string) (PacketConn, error) {
	return ListenUDPConfig(addr, UDPConfig{})
}

// ListenUDPConfig binds a real UDP socket with explicit tuning; see
// UDPConfig for the batching knob.
func ListenUDPConfig(addr string, cfg UDPConfig) (PacketConn, error) {
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
	c := &udpConn{
		conn:   conn,
		local:  netsim.Addr{Host: la.IP.String(), Port: uint16(la.Port)},
		cfg:    cfg.withDefaults(),
		cache:  make(map[netsim.Addr]*net.UDPAddr),
		closed: make(chan struct{}),
	}
	if c.cfg.Batch > 1 {
		st, err := newMmsgState(conn, c.cfg.Batch)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: batch mode: %w", err)
		}
		c.mmsg = st
		// WriteTo blocks while the send queue is full.
		c.sendq = make(chan txDatagram, max(4*c.cfg.Batch, 16))
		c.wg.Add(1)
		go c.sendLoop()
	}
	return c, nil
}

func (c *udpConn) LocalAddr() netsim.Addr { return c.local }

// IOStats reports the socket's syscall-level counters.
func (c *udpConn) IOStats() IOStats {
	return IOStats{
		ReadCalls:    c.readCalls.Load(),
		WriteCalls:   c.writeCalls.Load(),
		DatagramsIn:  c.datagramsIn.Load(),
		DatagramsOut: c.datagramsOut.Load(),
	}
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

func (c *udpConn) WriteTo(to netsim.Addr, p []byte) error {
	if len(p) > MaxDatagram {
		return fmt.Errorf("transport: datagram of %d bytes exceeds max %d", len(p), MaxDatagram)
	}
	ua, err := c.resolve(to)
	if err != nil {
		return err
	}
	if c.mmsg == nil {
		return c.writeSingle(ua, p)
	}
	bp := udpBufPool.Get().(*[]byte)
	n := copy(*bp, p)
	select {
	case c.sendq <- txDatagram{to: ua, buf: bp, n: n}:
		return nil
	case <-c.closed:
		udpBufPool.Put(bp)
		return ErrClosed
	}
}

// writeSingle transmits one datagram with one syscall.
func (c *udpConn) writeSingle(ua *net.UDPAddr, p []byte) error {
	_, err := c.conn.WriteToUDP(p, ua)
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return err
	}
	c.writeCalls.Add(1)
	c.datagramsOut.Add(1)
	return nil
}

// ReadFrom returns the next datagram. The returned slice is a fresh
// exact-size allocation owned by the caller (the ownership contract of
// PacketConn.ReadFrom); the max-size scratch buffers the socket reads
// into are pooled and recycled before return.
func (c *udpConn) ReadFrom() ([]byte, netsim.Addr, error) {
	if c.mmsg == nil {
		return c.readSingle()
	}
	c.readMu.Lock()
	defer c.readMu.Unlock()
	for c.pendHead >= len(c.pend) {
		if err := c.fillBatch(); err != nil {
			return nil, netsim.Addr{}, err
		}
	}
	d := c.pend[c.pendHead]
	c.pend[c.pendHead] = rxDatagram{}
	c.pendHead++
	return d.buf, d.from, nil
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

// readSingle reads one datagram with one syscall into a pooled buffer.
func (c *udpConn) readSingle() ([]byte, netsim.Addr, error) {
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
	c.datagramsIn.Add(1)
	out := make([]byte, n)
	copy(out, (*bp)[:n])
	udpBufPool.Put(bp)
	return out, c.fromAddr(ap), nil
}

// fillSingle refills the pending queue with one single-syscall read;
// it is the batch loop's fallback when mmsg syscalls are unavailable.
func (c *udpConn) fillSingle() error {
	buf, from, err := c.readSingle()
	if err != nil {
		return err
	}
	c.pend = append(c.pend[:0], rxDatagram{buf: buf, from: from})
	c.pendHead = 0
	return nil
}

// sendLoop drains the batch-mode send queue, transmitting up to Batch
// datagrams per sendmmsg syscall.
func (c *udpConn) sendLoop() {
	defer c.wg.Done()
	batch := make([]txDatagram, 0, c.cfg.Batch)
	for {
		select {
		case d := <-c.sendq:
			batch = append(batch[:0], d)
		case <-c.closed:
			return
		}
	drain:
		for len(batch) < c.cfg.Batch {
			select {
			case d := <-c.sendq:
				batch = append(batch, d)
			default:
				break drain
			}
		}
		c.flushTx(batch)
	}
}

// flushSerial transmits queued datagrams one syscall each — the batch
// writer's fallback path. Buffers are not recycled here; flushTx owns
// them.
func (c *udpConn) flushSerial(batch []txDatagram) {
	for _, d := range batch {
		if _, err := c.conn.WriteToUDP((*d.buf)[:d.n], d.to); err == nil {
			c.writeCalls.Add(1)
			c.datagramsOut.Add(1)
		}
	}
}

func (c *udpConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.conn.Close()
		c.wg.Wait()
		if c.sendq != nil {
			for {
				select {
				case d := <-c.sendq:
					udpBufPool.Put(d.buf)
				default:
					return
				}
			}
		}
	})
	return err
}
