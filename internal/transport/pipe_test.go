package transport

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// pipe is a scripted in-memory PacketConn pair for the loss-recovery and
// coalescing tests: every datagram crosses after a fixed one-way delay,
// in the order written, unless the rule says otherwise. Nothing about it
// is random. A stepped pipe (newSteppedPipe) carries nothing by itself:
// each datagram waits in its direction's queue until step hands it over.
type pipe struct {
	delay   time.Duration
	rule    func(dgramInfo) verdict
	a, b    *pipeEnd
	stepped bool

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
	hold // park a datagram carrying an ack until release; one without passes
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
	timer  bool      // written by a retransmission or delayed-ack timer
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
	held   *queued         // guarded by p.mu; a swapped datagram awaiting its successor
	parked []queued        // guarded by p.mu; held acks awaiting release
	once   sync.Once
	closed chan struct{}

	// Stepped pipes only. queue is what is in flight towards this end,
	// each datagram with its index in the log; reads is signalled each
	// time the end's receive loop asks for the next datagram, so step
	// knows when the one it handed over has been dealt with.
	queue []queued      // guarded by p.mu
	reads chan struct{} // capacity 1
}

type queued struct {
	idx  int // the datagram's index in the log
	data []byte
}

// pipeCap is enough for any test here never to fill a queue: the busiest
// writes a few thousand datagrams in all.
const pipeCap = 8192

func newPipe(t *testing.T, oneWay time.Duration, rule func(dgramInfo) verdict) *pipe {
	return startPipe(t, &pipe{delay: oneWay, rule: rule, copies: make(map[dgramKey]int), changed: make(chan struct{})})
}

// newSteppedPipe returns a pipe that moves a datagram only when step
// says so.
func newSteppedPipe(t *testing.T, rule func(dgramInfo) verdict) *pipe {
	return startPipe(t, &pipe{rule: rule, stepped: true, copies: make(map[dgramKey]int), changed: make(chan struct{})})
}

func startPipe(t *testing.T, p *pipe) *pipe {
	mk := func(host string) *pipeEnd {
		return &pipeEnd{p: p, addr: netsim.Addr{Host: host, Port: 1},
			line: make(chan timedDgram, pipeCap), inbox: make(chan []byte, pipeCap), closed: make(chan struct{}),
			reads: make(chan struct{}, 1)}
	}
	p.a, p.b = mk("a"), mk("b")
	p.a.peer, p.b.peer = p.b, p.a
	var wg sync.WaitGroup
	for _, e := range []*pipeEnd{p.a, p.b} {
		if p.stepped {
			break
		}
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

// parseDgram is the log's reading of datagram b, written by end a when
// fromA, short of its copy counts.
func parseDgram(fromA bool, b []byte) dgramInfo {
	d := dgramInfo{fromA: fromA, size: len(b), at: time.Now()}
	cum, hasCum, sel, hasSel, off, _ := parseHeader(b)
	d.cum, d.hasCum, d.sel, d.hasSel = cum, hasCum, sel, hasSel
	for {
		f, next, ok := nextFrame(b, off)
		if !ok {
			return d
		}
		d.frames, d.inline, off = append(d.frames, f.seq), append(d.inline, f.inline), next
	}
}

// fromTimer reports whether the calling goroutine is a timer callback
// of the layer.
func fromTimer() bool {
	var buf [4096]byte
	stack := buf[:runtime.Stack(buf[:], false)]
	return bytes.Contains(stack, []byte(").fireRetx(")) || bytes.Contains(stack, []byte(").fireAck("))
}

func (e *pipeEnd) WriteTo(_ netsim.Addr, b []byte) error {
	p := e.p
	d := parseDgram(e == p.a, b)
	d.timer = fromTimer()
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
	idx := len(p.log) - 1
	switch {
	case v == swap && to.held == nil:
		to.held = &queued{idx, data}
		return nil
	case v == hold && d.hasCum:
		to.parked = append(to.parked, queued{idx, data})
		return nil
	}
	if v != drop {
		to.enqueue(d.at, queued{idx, data})
		if v == dup {
			to.enqueue(d.at, queued{idx, append([]byte(nil), data...)})
		}
	}
	if to.held != nil {
		to.enqueue(d.at, *to.held)
		to.held = nil
	}
	return nil
}

// enqueue puts q in flight towards e. Caller holds p.mu.
func (e *pipeEnd) enqueue(sent time.Time, q queued) {
	if e.p.stepped {
		e.queue = append(e.queue, q)
		return
	}
	select {
	case e.line <- timedDgram{due: sent.Add(e.p.delay), data: q.data}:
	default: // full: a lost datagram, which the layer under test survives
	}
}

func (e *pipeEnd) ReadFrom() ([]byte, netsim.Addr, error) {
	if e.p.stepped {
		select {
		case e.reads <- struct{}{}:
		default:
		}
	}
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

// release puts the acks parked towards e in flight, in the order they
// were written, behind a swapped datagram still waiting for its
// successor.
func (p *pipe) release(e *pipeEnd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.held != nil {
		e.enqueue(time.Now(), *e.held)
		e.held = nil
	}
	for _, q := range e.parked {
		e.enqueue(time.Now(), q)
	}
	e.parked = nil
}

// step hands e the next datagram in flight towards it and waits until
// e's receive loop has dealt with it: every write that handling makes is
// in the log when step returns. It reports the datagram's log index, or
// false when nothing is in flight towards e. A stepped pipe's end must
// have its receive loop waiting on it (see awaitReading) when step is
// called.
func (p *pipe) step(e *pipeEnd) (int, bool) {
	p.mu.Lock()
	if len(e.queue) == 0 {
		p.mu.Unlock()
		return 0, false
	}
	q := e.queue[0]
	e.queue = e.queue[1:]
	p.mu.Unlock()
	e.inbox <- q.data
	e.awaitReading()
	return q.idx, true
}

// awaitReading waits until e's receive loop asks for its next datagram.
func (e *pipeEnd) awaitReading() {
	select {
	case <-e.reads:
	case <-e.closed:
	}
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
