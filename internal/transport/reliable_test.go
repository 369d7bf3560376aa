package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
)

// pairOn creates two reliable endpoints on the given hosts of a fresh
// network, returning the network for fault injection.
func pairOn(t *testing.T, hostA, hostB string, cfg Config, opts ...netsim.Option) (*netsim.Network, *endpoint, *endpoint) {
	t.Helper()
	n := netsim.New(opts...)
	t.Cleanup(n.Close)
	ea, err := n.Host(hostA).Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := n.Host(hostB).Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	ra := newEndpoint(NewSimConn(ea), cfg)
	rb := newEndpoint(NewSimConn(eb), cfg)
	t.Cleanup(func() { ra.Close(); rb.Close() })
	return n, ra, rb
}

// endpoint is a Reliable whose deliveries queue for the test to read
// with recvTimeout. The queue is unbounded, so the receive goroutine
// never waits on the test.
type endpoint struct {
	*Reliable
	mu   sync.Mutex
	rx   []delivery    // guarded by mu
	more chan struct{} // signalled after each delivery
}

type delivery struct {
	hdr, payload []byte
	from         netsim.Addr
}

func newEndpoint(pc PacketConn, cfg Config) *endpoint {
	e := &endpoint{more: make(chan struct{}, 1)}
	e.Reliable = NewReliable(pc, cfg, e.deliver)
	return e
}

func (e *endpoint) deliver(hdr, payload []byte, from netsim.Addr) {
	e.mu.Lock()
	e.rx = append(e.rx, delivery{hdr, payload, from})
	e.mu.Unlock()
	select {
	case e.more <- struct{}{}:
	default:
	}
}

// recvTimeout returns the payload and sender of e's next delivery,
// waiting at most d for it; it returns netsim.ErrTimeout on expiry. Each
// endpoint has one reader.
func recvTimeout(e *endpoint, d time.Duration) ([]byte, netsim.Addr, error) {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		e.mu.Lock()
		if len(e.rx) > 0 {
			m := e.rx[0]
			e.rx = e.rx[1:]
			e.mu.Unlock()
			return m.payload, m.from, nil
		}
		e.mu.Unlock()
		select {
		case <-e.more:
		case <-t.C:
			return nil, netsim.Addr{}, netsim.ErrTimeout
		}
	}
}

// A lone frame, with or without an ack for the reverse direction and
// with or without its header, round trips through one datagram, and the
// datagram holds nothing after it.
func TestFrameRoundTrip(t *testing.T) {
	f := func(hasCum bool, cum uint64, seq uint64, hdr []byte, inline bool, payload []byte) bool {
		dgram := appendFrame(appendHeader(nil, hasCum, cum, 0, false), seq, hdr, inline, payload)
		h, off, ok := parseHeader(dgram)
		if !ok || h.hasCum != hasCum || h.hasSel || hasCum && h.cum != cum {
			return false
		}
		fr, next, ok := nextFrame(dgram, off)
		if !ok || fr.seq != seq || !bytes.Equal(fr.payload, payload) || next != len(dgram) ||
			fr.inline != inline || inline && !bytes.Equal(fr.hdr, hdr) {
			return false
		}
		_, _, ok = nextFrame(dgram, next)
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := [][]byte{nil, {}, {1, 2, 3}, []byte("not a frame at all"), make([]byte, dgramHdrMax-1)}
	for _, b := range bad {
		if _, _, ok := parseHeader(b); ok {
			t.Errorf("parseHeader(%v) accepted garbage", b)
		}
	}
	// Behind a valid header, a frame whose header or payload runs past
	// the datagram and a seq whose uvarint never ends are not frames.
	hdr := appendHeader(nil, false, 0, 0, false)
	for _, tail := range [][]byte{{1, 9, 'a', 'b'}, {1, 3, 2, 'h'}, {1, 8, 'a'}, {0xff, 0xff}, {1}} {
		b := append(bytes.Clone(hdr), tail...)
		_, off, ok := parseHeader(b)
		if !ok {
			t.Fatalf("parseHeader(%v) rejected a valid header", b)
		}
		if _, _, ok := nextFrame(b, off); ok {
			t.Errorf("nextFrame(%v) accepted garbage", b)
		}
	}
}

func TestReliableBasicRoundTrip(t *testing.T) {
	_, ra, rb := pairOn(t, "a", "b", Config{})
	if err := ra.Send(rb.LocalAddr(), nil, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, from, err := recvTimeout(rb, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" || from != ra.LocalAddr() {
		t.Fatalf("got %q from %v", got, from)
	}
}

func TestOrderedDeliveryUnderReorderAndDup(t *testing.T) {
	cfg := Config{RTO: 20 * time.Millisecond, Window: 8}
	n, ra, rb := pairOn(t, "a", "b", cfg, netsim.WithSeed(77))
	n.SetLink("a", "b", netsim.LinkParams{Reorder: 0.4, Dup: 0.2})
	const total = 200
	go func() {
		for i := 0; i < total; i++ {
			if err := ra.SendWait(rb.LocalAddr(), nil, []byte(fmt.Sprintf("m%04d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		got, _, err := recvTimeout(rb, 5*time.Second)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if want := fmt.Sprintf("m%04d", i); string(got) != want {
			t.Fatalf("out of order: got %q want %q", got, want)
		}
	}
	if st := rb.Stats(); st.DupsDropped == 0 {
		t.Log("note: no duplicates observed (acceptable, probabilistic)")
	}
}

func TestOrderedDeliveryUnderLoss(t *testing.T) {
	cfg := Config{RTO: 15 * time.Millisecond, MaxRetries: 30, Window: 16}
	n, ra, rb := pairOn(t, "a", "b", cfg, netsim.WithSeed(5))
	n.SetLink("a", "b", netsim.LinkParams{Loss: 0.3})
	const total = 100
	go func() {
		for i := 0; i < total; i++ {
			if err := ra.Send(rb.LocalAddr(), nil, []byte(fmt.Sprintf("%03d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		got, _, err := recvTimeout(rb, 10*time.Second)
		if err != nil {
			t.Fatalf("message %d: %v (stats=%+v)", i, err, ra.Stats())
		}
		if want := fmt.Sprintf("%03d", i); string(got) != want {
			t.Fatalf("out of order at %d: %q", i, got)
		}
	}
	if st := ra.Stats(); st.Retransmits == 0 {
		t.Fatal("expected retransmissions at 30% loss")
	}
}

func TestExactlyOnceUnderHeavyDup(t *testing.T) {
	cfg := Config{RTO: 20 * time.Millisecond}
	n, ra, rb := pairOn(t, "a", "b", cfg, netsim.WithSeed(13))
	n.SetLink("a", "b", netsim.LinkParams{Dup: 1.0})
	const total = 50
	for i := 0; i < total; i++ {
		if err := ra.Send(rb.LocalAddr(), nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		got, _, err := recvTimeout(rb, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("position %d got %d", i, got[0])
		}
	}
	// No extra deliveries.
	if _, _, err := recvTimeout(rb, 100*time.Millisecond); err != netsim.ErrTimeout {
		t.Fatalf("extra delivery slipped through: %v", err)
	}
	if st := rb.Stats(); st.DupsDropped == 0 {
		t.Fatal("expected duplicate drops with Dup=1.0")
	}
}

func TestSendFailureReportedAcrossPartition(t *testing.T) {
	cfg := Config{RTO: 10 * time.Millisecond, MaxRetries: 3}
	n, ra, rb := pairOn(t, "a", "b", cfg)
	n.Partition([]string{"a"}, []string{"b"})
	if err := ra.Send(rb.LocalAddr(), nil, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ra.Stats().Failures == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no failure counted")
		}
	}
	if st := ra.Stats(); st.Failures != 1 || st.DataSent != 1 {
		t.Fatalf("Failures = %d, DataSent = %d; want 1 and 1", st.Failures, st.DataSent)
	}
	if d := ra.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth = %d after the failure, want 0", d)
	}
}

// giveUpAcrossCut cuts the pair, sends one frame from a and waits until
// a gives up on it, then heals.
func giveUpAcrossCut(t *testing.T, n *netsim.Network, ra, rb *endpoint) {
	t.Helper()
	n.Partition([]string{"a"}, []string{"b"})
	if err := ra.Send(rb.LocalAddr(), nil, []byte{0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ra.Stats().Failures == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no failure counted")
		}
	}
	n.Heal()
}

// expectAfterGiveUp reads total frames numbered 0..total-1 at rb: every
// delivery is a later frame than the one before, the last frame
// arrives, and each frame not delivered is one a gave up on, skipped by
// b, along with the frame given up on across the cut.
func expectAfterGiveUp(t *testing.T, ra, rb *endpoint, total int) {
	t.Helper()
	got, last := 0, -1
	for last < total-1 {
		p, _, err := recvTimeout(rb, 2*time.Second)
		if err != nil {
			t.Fatalf("after %d of %d frames: %v (a: %+v; b: %+v)", got, total, err, ra.Stats(), rb.Stats())
		}
		i := int(binary.BigEndian.Uint16(p))
		if i <= last {
			t.Fatalf("frame %d delivered after frame %d", i, last)
		}
		got, last = got+1, i
	}
	sa, sb := ra.Stats(), rb.Stats()
	if sb.Skipped == 0 || sb.Skipped > sa.Failures || got+int(sb.Skipped) != total+1 {
		t.Fatalf("%d of %d delivered, Skipped = %d, Failures = %d", got, total, sb.Skipped, sa.Failures)
	}
}

// A frame given up on across a cut no longer wedges its channel: the
// frames sent after the heal carry the floor past it, and all 5 arrive.
// Without the floor none did: b waited for the lost seq for good.
func TestGiveUpThenHealDelivers(t *testing.T) {
	n, ra, rb := pairOn(t, "a", "b", Config{RTO: 10 * time.Millisecond, MaxRetries: 3})
	giveUpAcrossCut(t, n, ra, rb)
	for i := range 5 {
		if err := ra.Send(rb.LocalAddr(), nil, binary.BigEndian.AppendUint16(nil, uint16(i))); err != nil {
			t.Fatal(err)
		}
	}
	expectAfterGiveUp(t, ra, rb, 5)
}

// The same with a stream: 400 frames through a window of 16 after the
// heal. Without the floor b's expected stayed at 1, its reorder buffer
// took every frame, and a gave them up window by window without waiting
// at SendWait once: each failure opened the window.
func TestGiveUpThenHealStreams(t *testing.T) {
	n, ra, rb := pairOn(t, "a", "b", Config{RTO: 10 * time.Millisecond, MaxRetries: 3, Window: 16})
	giveUpAcrossCut(t, n, ra, rb)
	const total = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range total {
			if err := ra.SendWait(rb.LocalAddr(), nil, binary.BigEndian.AppendUint16(nil, uint16(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	expectAfterGiveUp(t, ra, rb, total)
	<-done
}

// An application sender waits at a full window, on AwaitWindow, and goes
// on once the partition heals.
func TestWindowBlocksThenRecovers(t *testing.T) {
	cfg := Config{RTO: 15 * time.Millisecond, MaxRetries: 100, Window: 4}
	n, ra, rb := pairOn(t, "a", "b", cfg)
	n.Partition([]string{"a"}, []string{"b"}) // acks cannot come back
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if err := ra.SendWait(rb.LocalAddr(), nil, []byte{byte(i)}); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
		t.Fatal("sender did not block on full window")
	case <-time.After(100 * time.Millisecond):
	}
	n.Heal()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender did not recover after heal")
	}
	for i := 0; i < 8; i++ {
		got, _, err := recvTimeout(rb, 5*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("order broken at %d: %d", i, got[0])
		}
	}
}

func TestBidirectionalIndependentStreams(t *testing.T) {
	_, ra, rb := pairOn(t, "a", "b", Config{})
	const total = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := ra.Send(rb.LocalAddr(), nil, []byte{1, byte(i)}); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := rb.Send(ra.LocalAddr(), nil, []byte{2, byte(i)}); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	for i := 0; i < total; i++ {
		got, _, err := recvTimeout(rb, 2*time.Second)
		if err != nil || got[0] != 1 || got[1] != byte(i) {
			t.Fatalf("b recv %d: %v %v", i, got, err)
		}
	}
	for i := 0; i < total; i++ {
		got, _, err := recvTimeout(ra, 2*time.Second)
		if err != nil || got[0] != 2 || got[1] != byte(i) {
			t.Fatalf("a recv %d: %v %v", i, got, err)
		}
	}
}

func TestManyPeersFIFOPerPeer(t *testing.T) {
	n := netsim.New(netsim.WithSeed(3))
	defer n.Close()
	sinkEp, _ := n.Host("sink").Bind(1)
	sink := newEndpoint(NewSimConn(sinkEp), Config{})
	defer sink.Close()
	const peers, per = 5, 40
	for p := 0; p < peers; p++ {
		ep, err := n.Host(fmt.Sprintf("src%d", p)).Bind(1)
		if err != nil {
			t.Fatal(err)
		}
		r := newEndpoint(NewSimConn(ep), Config{})
		defer r.Close()
		go func(r *endpoint, p int) {
			for i := 0; i < per; i++ {
				if err := r.Send(sink.LocalAddr(), nil, []byte{byte(p), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r, p)
	}
	next := make([]int, peers)
	for k := 0; k < peers*per; k++ {
		got, _, err := recvTimeout(sink, 5*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", k, err)
		}
		p, i := int(got[0]), int(got[1])
		if i != next[p] {
			t.Fatalf("peer %d: got seq %d want %d", p, i, next[p])
		}
		next[p]++
	}
}

// Close unblocks both sides of a layer: an application sender waiting on
// a full window gets ErrClosed, and the receive loop waiting in ReadFrom
// has returned by the time Close does.
func TestCloseUnblocksSendAndRecv(t *testing.T) {
	base, _ := receiveLoops(reliableGoroutines())
	cfg := Config{RTO: 20 * time.Millisecond, Window: 1, MaxRetries: 1000}
	n, ra, rb := pairOn(t, "a", "b", cfg)
	n.Partition([]string{"a"}, []string{"b"})
	if err := ra.Send(rb.LocalAddr(), nil, []byte("1")); err != nil {
		t.Fatal(err)
	}
	sendErr := make(chan error, 1)
	go func() { sendErr <- ra.SendWait(rb.LocalAddr(), nil, []byte("2")) }()
	time.Sleep(30 * time.Millisecond)
	ra.Close()
	rb.Close()
	select {
	case err := <-sendErr:
		if err != ErrClosed {
			t.Fatalf("send err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send did not unblock")
	}
	awaitReceiveLoops(t, "after Close", base)
}

func TestStatsAccounting(t *testing.T) {
	_, ra, rb := pairOn(t, "a", "b", Config{})
	const total = 10
	for i := 0; i < total; i++ {
		if err := ra.Send(rb.LocalAddr(), nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if _, _, err := recvTimeout(rb, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := ra.Stats(), rb.Stats()
	if sa.DataSent != total {
		t.Fatalf("DataSent = %d", sa.DataSent)
	}
	if sb.Delivered != total {
		t.Fatalf("Delivered = %d", sb.Delivered)
	}
	// Acks are cumulative and coalesced (every ackEvery messages or
	// AckDelay): there must be at least one but never more than one per
	// message on a fault-free in-order stream.
	if sb.AcksSent == 0 || sb.AcksSent > total {
		t.Fatalf("AcksSent = %d, want 1..%d", sb.AcksSent, total)
	}
}

func TestAckCoalescing(t *testing.T) {
	// 64 in-order messages with an ack every 8 must produce far fewer
	// acks than messages: coalescing is the point of the delayed-ack
	// design.
	cfg := Config{Window: 128}
	_, ra, rb := pairOn(t, "a", "b", cfg)
	const total = 64
	for i := 0; i < total; i++ {
		if err := ra.Send(rb.LocalAddr(), nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if _, _, err := recvTimeout(rb, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	awaitDepth(t, ra, 0) // the trailing delayed ack has arrived: the count is stable
	if st := rb.Stats(); st.AcksSent > total/4 {
		t.Fatalf("AcksSent = %d for %d in-order messages; acks are not coalescing", st.AcksSent, total)
	}
}

func TestMultipleBlockedSendersAllWake(t *testing.T) {
	// Regression test for the lost-wakeup in the old one-slot spaceC
	// design: with several senders blocked on a full window, each ack
	// must wake the waiters (sync.Cond broadcast), not just one of them
	// per ack with the rest stalled until an RTO poll.
	cfg := Config{RTO: 20 * time.Millisecond, MaxRetries: 100, Window: 1}
	n, ra, rb := pairOn(t, "a", "b", cfg)
	n.Partition([]string{"a"}, []string{"b"})
	if err := ra.Send(rb.LocalAddr(), nil, []byte{0}); err != nil {
		t.Fatal(err)
	}
	const senders = 8
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ra.SendWait(rb.LocalAddr(), nil, []byte{byte(i + 1)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let all senders block
	n.Heal()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked senders did not all wake after window space freed")
	}
	seen := make(map[byte]bool)
	for i := 0; i < senders+1; i++ {
		got, _, err := recvTimeout(rb, 5*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if seen[got[0]] {
			t.Fatalf("duplicate delivery of %d", got[0])
		}
		seen[got[0]] = true
	}
}

func TestUDPLoopbackRoundTrip(t *testing.T) {
	pa, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	pb, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ra := newEndpoint(pa, Config{})
	rb := newEndpoint(pb, Config{})
	defer ra.Close()
	defer rb.Close()
	const total = 20
	for i := 0; i < total; i++ {
		if err := ra.Send(rb.LocalAddr(), nil, []byte(fmt.Sprintf("udp%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		got, _, err := recvTimeout(rb, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("udp%02d", i); string(got) != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
}

func TestUDPOversizeRejected(t *testing.T) {
	pa, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	defer pa.Close()
	if err := pa.WriteTo(pa.LocalAddr(), make([]byte, MaxDatagram+1)); err == nil {
		t.Fatal("oversize datagram accepted")
	}
}

func TestBytesOutAndQueueDepth(t *testing.T) {
	net, ra, rb := pairOn(t, "a", "b", Config{})
	if got := ra.QueueDepth(); got != 0 {
		t.Fatalf("idle QueueDepth = %d", got)
	}
	const total = 5
	for i := 0; i < total; i++ {
		if err := ra.Send(rb.LocalAddr(), nil, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if _, _, err := recvTimeout(rb, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Every physical write carries a header, and every frame its seq and
	// length ahead of the payload: BytesOut must cover both.
	sa := ra.Stats()
	if want := sa.DatagramsOut*3 + total*uint64(2+len("payload")); sa.BytesOut < want {
		t.Fatalf("BytesOut = %d for %d datagrams, want >= %d", sa.BytesOut, sa.DatagramsOut, want)
	}

	// Partition the pair: unacked sends pile up in the queue.
	net.Partition([]string{"a"}, []string{"b"})
	for i := 0; i < 3; i++ {
		if err := ra.Send(rb.LocalAddr(), nil, []byte("stuck")); err != nil {
			t.Fatal(err)
		}
	}
	if got := ra.QueueDepth(); got < 3 {
		t.Fatalf("partitioned QueueDepth = %d, want >= 3", got)
	}
	net.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for ra.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth stuck at %d after heal", ra.QueueDepth())
		}
		time.Sleep(5 * time.Millisecond)
	}
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
