//go:build linux && (amd64 || arm64)

package transport

import (
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"syscall"
	"unsafe"

	"repro/internal/netsim"
)

// The stdlib exposes recvmmsg's syscall number on some architectures
// but not sendmmsg's, and this module deliberately carries no external
// dependencies (x/net would provide ipv4.PacketConn ReadBatch/
// WriteBatch), so both numbers live in per-arch files and the calls go
// through syscall.Syscall6 against the netpoller-managed raw fd. If the
// kernel or a seccomp sandbox rejects the mmsg syscalls at runtime, the
// conn permanently falls back to single-packet syscalls.

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message transferred byte count the kernel writes back.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgState holds the preallocated scatter/gather arrays for batched
// reads and writes on one socket.
type mmsgState struct {
	rawc syscall.RawConn
	v6   bool // socket family; sockaddr names must match it

	ok atomic.Bool // cleared once the kernel rejects an mmsg syscall

	rxHdrs  []mmsghdr
	rxIovs  []syscall.Iovec
	rxBufs  [][]byte
	rxNames []syscall.RawSockaddrAny

	txHdrs  []mmsghdr
	txIovs  []syscall.Iovec
	txNames []syscall.RawSockaddrAny
}

func newMmsgState(conn *net.UDPConn, batch int) (*mmsgState, error) {
	rawc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	la := conn.LocalAddr().(*net.UDPAddr)
	st := &mmsgState{
		rawc:    rawc,
		v6:      la.IP.To4() == nil,
		rxHdrs:  make([]mmsghdr, batch),
		rxIovs:  make([]syscall.Iovec, batch),
		rxBufs:  make([][]byte, batch),
		rxNames: make([]syscall.RawSockaddrAny, batch),
		txHdrs:  make([]mmsghdr, batch),
		txIovs:  make([]syscall.Iovec, batch),
		txNames: make([]syscall.RawSockaddrAny, batch),
	}
	st.ok.Store(true)
	for i := range st.rxHdrs {
		st.rxBufs[i] = make([]byte, MaxDatagram+1)
		st.rxIovs[i] = syscall.Iovec{Base: &st.rxBufs[i][0], Len: uint64(len(st.rxBufs[i]))}
		st.rxHdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&st.rxNames[i]))
		st.rxHdrs[i].hdr.Iov = &st.rxIovs[i]
		st.rxHdrs[i].hdr.Iovlen = 1
	}
	for i := range st.txHdrs {
		st.txHdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&st.txNames[i]))
		st.txHdrs[i].hdr.Iov = &st.txIovs[i]
		st.txHdrs[i].hdr.Iovlen = 1
	}
	return st, nil
}

// mmsgUnavailable reports an errno meaning the syscall will never work
// here (unimplemented or sandboxed), as opposed to a transient failure.
func mmsgUnavailable(errno syscall.Errno) bool {
	return errno == syscall.ENOSYS || errno == syscall.EPERM ||
		errno == syscall.EINVAL || errno == syscall.EOPNOTSUPP
}

// fillBatch refills the pending read queue with one recvmmsg syscall
// (up to Batch datagrams), blocking in the netpoller until the socket
// is readable.
func (c *udpConn) fillBatch() error {
	st := c.mmsg
	if !st.ok.Load() {
		return c.fillSingle()
	}
	for i := range st.rxHdrs {
		st.rxHdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(st.rxNames[i]))
		st.rxHdrs[i].n = 0
	}
	var n int
	var errno syscall.Errno
	err := st.rawc.Read(func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&st.rxHdrs[0])), uintptr(len(st.rxHdrs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if e == syscall.EAGAIN {
			return false // wait for readability and retry
		}
		n, errno = int(r1), e
		return true
	})
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return err
	}
	if errno != 0 {
		if mmsgUnavailable(errno) {
			st.ok.Store(false)
			return c.fillSingle()
		}
		return errno
	}
	c.readCalls.Add(1)
	c.datagramsIn.Add(uint64(n))
	c.pend = c.pend[:0]
	c.pendHead = 0
	for i := 0; i < n; i++ {
		l := int(st.rxHdrs[i].n)
		buf := make([]byte, l)
		copy(buf, st.rxBufs[i][:l])
		c.pend = append(c.pend, rxDatagram{buf: buf, from: c.sockaddrToAddr(&st.rxNames[i])})
	}
	return nil
}

// flushTx transmits one gathered batch, packing up to Batch datagrams
// per sendmmsg syscall, and recycles every buffer.
func (c *udpConn) flushTx(batch []txDatagram) {
	st := c.mmsg
	if !st.ok.Load() {
		c.flushSerial(batch)
		recycleTx(batch)
		return
	}
	for i, d := range batch {
		nl := putSockaddr(&st.txNames[i], d.to, st.v6)
		st.txIovs[i] = syscall.Iovec{Base: &(*d.buf)[0], Len: uint64(d.n)}
		st.txHdrs[i].hdr.Namelen = nl
		st.txHdrs[i].n = 0
	}
	sent := 0
	for sent < len(batch) {
		var n int
		var errno syscall.Errno
		err := st.rawc.Write(func(fd uintptr) bool {
			r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&st.txHdrs[sent])), uintptr(len(batch)-sent),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			if e == syscall.EAGAIN {
				return false // wait for writability and retry
			}
			n, errno = int(r1), e
			return true
		})
		if err != nil {
			break // socket closed: drop the rest, like any lost datagram
		}
		if errno != 0 {
			if mmsgUnavailable(errno) {
				st.ok.Store(false)
				c.flushSerial(batch[sent:])
			}
			break
		}
		if n <= 0 {
			break
		}
		c.writeCalls.Add(1)
		c.datagramsOut.Add(uint64(n))
		sent += n
	}
	recycleTx(batch)
}

// recycleTx returns a transmitted batch's pooled buffers.
func recycleTx(batch []txDatagram) {
	for _, d := range batch {
		udpBufPool.Put(d.buf)
	}
}

// putSockaddr encodes a UDP address into a raw sockaddr matching the
// socket's family (v4 destinations become v4-mapped v6 on a v6 or
// dual-stack socket) and returns the sockaddr length.
func putSockaddr(dst *syscall.RawSockaddrAny, ua *net.UDPAddr, v6 bool) uint32 {
	if !v6 {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(dst))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
		if ip4 := ua.IP.To4(); ip4 != nil {
			copy(sa.Addr[:], ip4)
		}
		return syscall.SizeofSockaddrInet4
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(dst))
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
	if ip := ua.IP.To16(); ip != nil {
		copy(sa.Addr[:], ip)
	}
	return syscall.SizeofSockaddrInet6
}

// sockaddrToAddr decodes a kernel-written raw sockaddr into a transport
// address through the sender memo, exactly as the single-packet path
// reads it.
func (c *udpConn) sockaddrToAddr(rsa *syscall.RawSockaddrAny) netsim.Addr {
	var ip netip.Addr
	var port *[2]byte
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		ip, port = netip.AddrFrom4(sa.Addr), (*[2]byte)(unsafe.Pointer(&sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		ip, port = netip.AddrFrom16(sa.Addr), (*[2]byte)(unsafe.Pointer(&sa.Port))
	default:
		return netsim.Addr{}
	}
	return c.fromAddr(netip.AddrPortFrom(ip, uint16(port[0])<<8|uint16(port[1])))
}
