package transport

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// pipe is a scripted in-memory PacketConn pair for the loss-recovery and
// coalescing tests: every datagram crosses after a fixed one-way delay,
// in the order written, unless the rule says otherwise. Nothing about it
// is random.
type pipe struct {
	delay time.Duration
	rule  func(dgramInfo) verdict
	a, b  *pipeEnd

	mu      sync.Mutex
	copies  map[dgramKey]int // guarded by mu
	log     []dgramInfo      // guarded by mu; every datagram written, dropped or not
	changed chan struct{}    // guarded by mu; closed and replaced on every append
}

// verdict is what the rule does with one datagram.
type verdict int

const (
	pass verdict = iota
	drop
	dup  // deliver twice
	swap // deliver after the next datagram in the same direction
)

// dgramInfo describes one written datagram to the rule and in the log.
type dgramInfo struct {
	fromA  bool      // direction: written by end a
	hasCum bool      // the datagram carries an ack
	cum    uint64    // the ack's cumulative point
	sel    uint64    // the ack's selective bitmap
	hasSel bool      // the ack carries one
	frames []uint64  // the data seqs it carries, in order
	inline []bool    // per frame: it carries its header
	copies []int     // per frame: 1 the first time its (direction, seq) is written, 2 the second, ...
	size   int       // datagram length
	at     time.Time // when it was written
}

type dgramKey struct {
	fromA bool
	seq   uint64
}

// data reports whether d, from end a, carries the copy-th transmission
// of data frame seq.
func (d dgramInfo) data(seq uint64, copy int) bool {
	i := slices.Index(d.frames, seq)
	return d.fromA && i >= 0 && d.copies[i] == copy
}

// carries reports whether d is a datagram from end a bearing data frame
// seq.
func (d dgramInfo) carries(seq uint64) bool {
	return d.fromA && slices.Contains(d.frames, seq)
}

// bareAck reports whether d is an ack with no frame.
func (d dgramInfo) bareAck() bool { return d.hasCum && len(d.frames) == 0 }

// resent reports whether d carries a frame that was on the wire before.
func (d dgramInfo) resent() bool {
	return slices.ContainsFunc(d.copies, func(c int) bool { return c > 1 })
}

type timedDgram struct {
	due  time.Time
	data []byte
}

// pipeEnd is one side's PacketConn.
type pipeEnd struct {
	p      *pipe
	addr   netsim.Addr
	peer   *pipeEnd
	line   chan timedDgram // in flight towards this end, in order
	inbox  chan []byte     // arrived, unread
	held   []byte          // guarded by p.mu; a swapped datagram awaiting its successor
	once   sync.Once
	closed chan struct{}
}

// pipeCap is enough for any test here never to fill a queue: the busiest
// writes a few thousand datagrams in all.
const pipeCap = 8192

func newPipe(t *testing.T, oneWay time.Duration, rule func(dgramInfo) verdict) *pipe {
	p := &pipe{delay: oneWay, rule: rule, copies: make(map[dgramKey]int), changed: make(chan struct{})}
	mk := func(host string) *pipeEnd {
		return &pipeEnd{p: p, addr: netsim.Addr{Host: host, Port: 1},
			line: make(chan timedDgram, pipeCap), inbox: make(chan []byte, pipeCap), closed: make(chan struct{})}
	}
	p.a, p.b = mk("a"), mk("b")
	p.a.peer, p.b.peer = p.b, p.a
	var wg sync.WaitGroup
	for _, e := range []*pipeEnd{p.a, p.b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.carry()
		}()
	}
	t.Cleanup(func() {
		p.a.Close()
		p.b.Close()
		wg.Wait()
	})
	return p
}

// pipePair is a Reliable on each end of a fresh pipe.
func pipePair(t *testing.T, oneWay time.Duration, cfg Config, rule func(dgramInfo) verdict) (*pipe, *endpoint, *endpoint) {
	t.Helper()
	p := newPipe(t, oneWay, rule)
	ra, rb := newEndpoint(p.a, cfg), newEndpoint(p.b, cfg)
	t.Cleanup(func() { ra.Close(); rb.Close() })
	return p, ra, rb
}

// carry delivers what is in flight towards e, each datagram at its due time.
func (e *pipeEnd) carry() {
	for {
		select {
		case d := <-e.line:
			if wait := time.Until(d.due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-e.closed:
					return
				}
			}
			e.inbox <- d.data // never blocks: inbox is as large as line
		case <-e.closed:
			return
		}
	}
}

func (e *pipeEnd) LocalAddr() netsim.Addr { return e.addr }

func (e *pipeEnd) WriteTo(_ netsim.Addr, b []byte) error {
	p := e.p
	d := dgramInfo{fromA: e == p.a, size: len(b), at: time.Now()}
	cum, hasCum, sel, hasSel, off, _ := parseHeader(b)
	d.cum, d.hasCum, d.sel, d.hasSel = cum, hasCum, sel, hasSel
	for {
		f, next, ok := nextFrame(b, off)
		if !ok {
			break
		}
		d.frames, d.inline, off = append(d.frames, f.seq), append(d.inline, f.inline), next
	}
	data := append([]byte(nil), b...)
	to := e.peer
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, seq := range d.frames {
		k := dgramKey{d.fromA, seq}
		p.copies[k]++
		d.copies = append(d.copies, p.copies[k])
	}
	p.log = append(p.log, d)
	close(p.changed)
	p.changed = make(chan struct{})
	v := pass
	if p.rule != nil {
		v = p.rule(d)
	}
	if v == swap && to.held == nil {
		to.held = data
		return nil
	}
	if v != drop {
		to.enqueue(d.at, data)
		if v == dup {
			to.enqueue(d.at, append([]byte(nil), data...))
		}
	}
	if to.held != nil {
		to.enqueue(d.at, to.held)
		to.held = nil
	}
	return nil
}

func (e *pipeEnd) enqueue(sent time.Time, data []byte) {
	select {
	case e.line <- timedDgram{due: sent.Add(e.p.delay), data: data}:
	default: // full: a lost datagram, which the layer under test survives
	}
}

func (e *pipeEnd) ReadFrom() ([]byte, netsim.Addr, error) {
	select {
	case b := <-e.inbox:
		return b, e.peer.addr, nil
	case <-e.closed:
		return nil, netsim.Addr{}, ErrClosed
	}
}

func (e *pipeEnd) Close() error {
	e.once.Do(func() { close(e.closed) })
	return nil
}

// await blocks until a logged datagram satisfies match and returns it.
func (p *pipe) await(t *testing.T, what string, match func(dgramInfo) bool) dgramInfo {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for i := 0; ; {
		p.mu.Lock()
		for ; i < len(p.log); i++ {
			if match(p.log[i]) {
				d := p.log[i]
				p.mu.Unlock()
				return d
			}
		}
		changed := p.changed
		p.mu.Unlock()
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// count returns how many logged datagrams satisfy match.
func (p *pipe) count(match func(dgramInfo) bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, d := range p.log {
		if match(d) {
			n++
		}
	}
	return n
}

// nullConn is a PacketConn into the void: writes vanish, nothing arrives.
// Tests hand the layer its datagrams directly through handleDatagram.
type nullConn struct {
	once   sync.Once
	closed chan struct{}
}

func newNullConn() *nullConn { return &nullConn{closed: make(chan struct{})} }

func (c *nullConn) LocalAddr() netsim.Addr            { return netsim.Addr{Host: "null", Port: 1} }
func (c *nullConn) WriteTo(netsim.Addr, []byte) error { return nil }
func (c *nullConn) ReadFrom() ([]byte, netsim.Addr, error) {
	<-c.closed
	return nil, netsim.Addr{}, ErrClosed
}
func (c *nullConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}
