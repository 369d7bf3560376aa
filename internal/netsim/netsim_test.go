package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBasicDelivery(t *testing.T) {
	n := New(WithSeed(7))
	defer n.Close()
	a, err := n.Host("pasadena").Bind(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Host("houston").Bind(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	dg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Payload) != "hello" {
		t.Fatalf("payload = %q, want hello", dg.Payload)
	}
	if dg.From != a.Addr() || dg.To != b.Addr() {
		t.Fatalf("addrs = %v -> %v", dg.From, dg.To)
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Host("h").Bind(1)
	b, _ := n.Host("h").Bind(2)
	buf := []byte("original")
	if err := a.Send(b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	dg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Payload) != "original" {
		t.Fatalf("payload aliased sender buffer: %q", dg.Payload)
	}
}

func TestBindConflicts(t *testing.T) {
	n := New()
	defer n.Close()
	h := n.Host("h")
	if _, err := h.Bind(9); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Bind(9); err != ErrPortInUse {
		t.Fatalf("second bind err = %v, want ErrPortInUse", err)
	}
	e1, err := h.BindAny()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := h.BindAny()
	if err != nil {
		t.Fatal(err)
	}
	if e1.Addr() == e2.Addr() {
		t.Fatal("BindAny returned duplicate addresses")
	}
	// Port becomes reusable after close.
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Bind(e1.Addr().Port); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestSendToUnknownHost(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Host("h").Bind(1)
	if err := a.Send(Addr{"nowhere", 5}, []byte("x")); err == nil {
		t.Fatal("want error sending to unknown host")
	}
}

func TestSendToClosedPortIsSilentlyDropped(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Host("h").Bind(1)
	if err := a.Send(Addr{"h", 999}, []byte("x")); err != nil {
		t.Fatalf("UDP-like send to closed port should not error: %v", err)
	}
	// A no-listener drop, not a queue drop: the counters name causes.
	if st := n.Stats(); st.Delivered != 0 || st.LostNoListener != 1 || st.LostQueue != 0 {
		t.Fatalf("Delivered=%d LostNoListener=%d LostQueue=%d, want 0/1/0", st.Delivered, st.LostNoListener, st.LostQueue)
	}
}

func TestLossDropsDatagrams(t *testing.T) {
	n := New(WithSeed(42))
	defer n.Close()
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	n.SetLink("x", "y", LinkParams{Loss: 1.0})
	for i := 0; i < 50; i++ {
		if err := a.Send(b.Addr(), []byte("z")); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.LostLink != 50 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 50 lost, 0 delivered", st)
	}
}

func TestPartialLossStatistics(t *testing.T) {
	n := New(WithSeed(11))
	defer n.Close()
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	n.SetLink("x", "y", LinkParams{Loss: 0.5})
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send(b.Addr(), []byte("z")); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.LostLink < total/4 || st.LostLink > 3*total/4 {
		t.Fatalf("lost %d of %d at p=0.5; outside sanity band", st.LostLink, total)
	}
	if st.LostLink+st.Delivered != total {
		t.Fatalf("lost %d + delivered %d != %d", st.LostLink, st.Delivered, total)
	}
}

func TestDuplication(t *testing.T) {
	n := New(WithSeed(3))
	defer n.Close()
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	n.SetLink("x", "y", LinkParams{Dup: 1.0})
	if err := a.Send(b.Addr(), []byte("d")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
	}
	if st := n.Stats(); st.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", st.Duplicated)
	}
}

func TestReorderSwapsAdjacentDatagrams(t *testing.T) {
	n := New(WithSeed(5))
	defer n.Close()
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	n.SetLink("x", "y", LinkParams{Reorder: 1.0})
	// First send is stashed; the second triggers delivery of both, with the
	// second delivered first.
	if err := a.Send(b.Addr(), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte("2")); err != nil {
		t.Fatal(err)
	}
	d1, err := b.RecvTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := b.RecvTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1.Payload) != "2" || string(d2.Payload) != "1" {
		t.Fatalf("got order %q,%q; want 2,1", d1.Payload, d2.Payload)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	a, _ := n.Host("west").Bind(1)
	b, _ := n.Host("east").Bind(1)
	n.Partition([]string{"west"}, []string{"east"})
	if err := a.Send(b.Addr(), []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(20 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("recv across partition: err=%v, want timeout", err)
	}
	if st := n.Stats(); st.LostCut != 1 {
		t.Fatalf("LostCut = %d, want 1", st.LostCut)
	}
	n.Heal()
	if err := a.Send(b.Addr(), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(time.Second); err != nil {
		t.Fatalf("recv after heal: %v", err)
	}
}

func TestPartitionSameGroupDelivers(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Host("w1").Bind(1)
	b, _ := n.Host("w2").Bind(1)
	n.Partition([]string{"w1", "w2"}, []string{"east"})
	if err := a.Send(b.Addr(), []byte("in-group")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(time.Second); err != nil {
		t.Fatalf("same-group delivery failed: %v", err)
	}
}

func TestVirtualClockAdvancesByLinkDelay(t *testing.T) {
	n := New(WithSeed(1), WithDefaultDelay(Constant(10*time.Millisecond)))
	defer n.Close()
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	if err := a.Send(b.Addr(), []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := b.VNow(); got != 10*time.Millisecond {
		t.Fatalf("receiver vclock = %v, want 10ms", got)
	}
	if got := a.VNow(); got != 0 {
		t.Fatalf("sender vclock = %v, want 0 (send does not advance)", got)
	}
}

func TestVirtualClockCriticalPath(t *testing.T) {
	// A 3-hop relay should accumulate 3 link delays on the critical path.
	n := New(WithSeed(1), WithDefaultDelay(Constant(5*time.Millisecond)))
	defer n.Close()
	eps := make([]*Endpoint, 4)
	for i := range eps {
		var err error
		eps[i], err = n.Host(fmt.Sprintf("h%d", i)).Bind(1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := eps[0].Send(eps[1].Addr(), []byte("hop")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		dg, err := eps[i].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			if err := eps[i].Send(eps[i+1].Addr(), dg.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := n.MaxVirtual(), 15*time.Millisecond; got != want {
		t.Fatalf("critical path = %v, want %v", got, want)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Host("h").Bind(1)
	b, _ := n.Host("h").BindAnyQueue(4)
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Delivered != 4 || st.LostQueue != 6 {
		t.Fatalf("delivered=%d lostQueue=%d, want 4/6", st.Delivered, st.LostQueue)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	n := New()
	defer n.Close()
	e, _ := n.Host("h").Bind(1)
	done := make(chan error, 1)
	go func() {
		_, err := e.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestRecvDrainsQueueAfterClose(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Host("h").Bind(1)
	b, _ := n.Host("h").Bind(2)
	if err := a.Send(b.Addr(), []byte("q")); err != nil {
		t.Fatal(err)
	}
	// Ensure delivery happened before closing.
	deadline := time.Now().Add(time.Second)
	for n.Stats().Delivered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("datagram never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	if dg, err := b.Recv(); err != nil || string(dg.Payload) != "q" {
		t.Fatalf("drain after close: %v %q", err, dg.Payload)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("second recv err = %v, want ErrClosed", err)
	}
}

func TestSendOnClosedEndpoint(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Host("h").Bind(1)
	b, _ := n.Host("h").Bind(2)
	a.Close()
	if err := a.Send(b.Addr(), []byte("x")); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestNetworkCloseIsIdempotentAndFinal(t *testing.T) {
	n := New()
	e, _ := n.Host("h").Bind(1)
	n.Close()
	n.Close()
	if err := e.Send(e.Addr(), []byte("x")); err != ErrClosed {
		t.Fatalf("send after close err = %v, want ErrClosed", err)
	}
	if _, err := n.Host("h2").Bind(1); err != ErrClosed {
		t.Fatalf("bind after close err = %v, want ErrClosed", err)
	}
}

func TestRealTimeScaleDelaysDelivery(t *testing.T) {
	n := New(WithTimeScale(1.0), WithDefaultDelay(Constant(30*time.Millisecond)))
	defer n.Close()
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	start := time.Now()
	if err := a.Send(b.Addr(), []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivery after %v, want >= ~30ms", elapsed)
	}
}

func TestConcurrentSendersAreSafe(t *testing.T) {
	n := New(WithSeed(9))
	defer n.Close()
	dst, _ := n.Host("sink").BindAnyQueue(100000)
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		e, err := n.Host(fmt.Sprintf("src%d", s)).Bind(1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(e *Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Send(dst.Addr(), []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	got := 0
	for {
		if _, err := dst.RecvTimeout(100 * time.Millisecond); err != nil {
			break
		}
		got++
	}
	if got != senders*per {
		t.Fatalf("received %d, want %d", got, senders*per)
	}
}

func TestDelayModels(t *testing.T) {
	r := newTestRand()
	models := []struct {
		name string
		m    DelayModel
	}{
		{"lan", LAN()},
		{"wan", WAN()},
		{"constant", Constant(time.Millisecond)},
		{"uniform", Uniform(time.Millisecond, 2*time.Millisecond)},
		{"spiky", Spiky(Constant(time.Millisecond), 0.5, 10*time.Millisecond)},
	}
	for _, tc := range models {
		var sum time.Duration
		for i := 0; i < 1000; i++ {
			d := tc.m.Sample(r)
			if d < 0 {
				t.Fatalf("%s: negative delay %v", tc.name, d)
			}
			sum += d
		}
		mean := sum / 1000
		if tc.m.Mean() > 0 {
			ratio := float64(mean) / float64(tc.m.Mean())
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s: empirical mean %v vs declared %v", tc.name, mean, tc.m.Mean())
			}
		}
	}
}

func TestUniformDegenerateRange(t *testing.T) {
	m := Uniform(time.Millisecond, time.Millisecond)
	if d := m.Sample(newTestRand()); d != time.Millisecond {
		t.Fatalf("degenerate uniform = %v", d)
	}
}

func TestStatsVirtualAggregates(t *testing.T) {
	n := New(WithDefaultDelay(Constant(4 * time.Millisecond)))
	defer n.Close()
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	if err := a.Send(b.Addr(), []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.MaxVirtual != 4*time.Millisecond {
		t.Fatalf("MaxVirtual = %v", st.MaxVirtual)
	}
	if st.MeanVirtual != 2*time.Millisecond {
		t.Fatalf("MeanVirtual = %v", st.MeanVirtual)
	}
}

func TestCrashDropsInboundAndOutbound(t *testing.T) {
	n := New(WithSeed(11))
	defer n.Close()
	a, _ := n.Host("alive").Bind(1)
	b, _ := n.Host("victim").Bind(1)

	// Sanity: traffic flows both ways before the crash.
	if err := a.Send(b.Addr(), []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}

	n.Crash("victim")
	if !n.Crashed("victim") {
		t.Fatal("Crashed(victim) = false after Crash")
	}
	before := n.Stats()
	if err := a.Send(b.Addr(), []byte("to-victim")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.Addr(), []byte("from-victim")); err != nil {
		t.Fatal(err)
	}
	after := n.Stats()
	if got := after.LostCrash - before.LostCrash; got != 2 {
		t.Fatalf("LostCrash delta = %d, want 2", got)
	}
	if _, err := b.RecvTimeout(20 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("crashed host received a datagram (err=%v)", err)
	}

	n.Restart("victim")
	if n.Crashed("victim") {
		t.Fatal("Crashed(victim) = true after Restart")
	}
	if err := a.Send(b.Addr(), []byte("post")); err != nil {
		t.Fatal(err)
	}
	dg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Payload) != "post" {
		t.Fatalf("restarted host got %q, want %q (outage traffic must not replay)", dg.Payload, "post")
	}
}

func TestCrashDropsInFlightTimedDeliveries(t *testing.T) {
	// Time-scaled network: datagrams sit in the timer queue long enough
	// for a crash to land while they are in flight.
	n := New(WithSeed(12), WithDefaultDelay(Constant(50*time.Millisecond)), WithTimeScale(1))
	defer n.Close()
	a, _ := n.Host("src").Bind(1)
	b, _ := n.Host("dst").Bind(1)
	if err := a.Send(b.Addr(), []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	n.Crash("dst")
	if _, err := b.RecvTimeout(200 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("in-flight datagram delivered to crashed host (err=%v)", err)
	}
	st := n.Stats()
	if st.LostCrash != 1 {
		t.Fatalf("LostCrash = %d, want 1", st.LostCrash)
	}
}

func TestCrashConsumesNoRandomDraws(t *testing.T) {
	// Two same-seed runs, one with a crash/restart of an uninvolved host
	// in the middle, must deliver identical loss patterns: crash is
	// control-plane and must not disturb the shard's random stream.
	run := func(crash bool) []bool {
		n := New(WithSeed(33), WithShards(1))
		defer n.Close()
		n.SetLoss("s", "d", 0.5)
		src, _ := n.Host("s").Bind(1)
		dst, _ := n.Host("d").Bind(1)
		var got []bool
		for i := 0; i < 64; i++ {
			if crash && i == 32 {
				n.Crash("bystander")
				n.Restart("bystander")
			}
			if err := src.Send(dst.Addr(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			_, err := dst.RecvTimeout(time.Millisecond)
			got = append(got, err == nil)
		}
		return got
	}
	plain, crashed := run(false), run(true)
	for i := range plain {
		if plain[i] != crashed[i] {
			t.Fatalf("loss pattern diverged at send %d: crash consumed a random draw", i)
		}
	}
}

func TestCrashDropsReorderStashedDatagram(t *testing.T) {
	// A Reorder stash holds a datagram until the link's next send; a
	// crash must discard it, or a pre-crash datagram would resurrect
	// after restart.
	n := New(WithSeed(13))
	defer n.Close()
	n.SetLink("src", "dst", LinkParams{Reorder: 1.0})
	a, _ := n.Host("src").Bind(1)
	b, _ := n.Host("dst").Bind(1)
	if err := a.Send(b.Addr(), []byte("stashed")); err != nil {
		t.Fatal(err)
	}
	n.Crash("dst")
	n.Restart("dst")
	n.SetLink("src", "dst", LinkParams{}) // no reordering for the flush probe
	if err := a.Send(b.Addr(), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	dg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Payload) != "fresh" {
		t.Fatalf("got %q; the crashed link's stash leaked through", dg.Payload)
	}
	if _, err := b.RecvTimeout(20 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("stashed pre-crash datagram was delivered (err=%v)", err)
	}
	if st := n.Stats(); st.LostCrash != 1 {
		t.Fatalf("LostCrash = %d, want 1 (the discarded stash)", st.LostCrash)
	}
}

func TestWireBytesCountsDatagramOverhead(t *testing.T) {
	// WireBytes models the on-the-wire cost of every datagram: payload
	// plus the per-datagram header overhead. Two datagrams of 10 bytes at
	// the 28-byte overhead cost 76 wire bytes.
	n := New()
	defer n.Close()
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	for i := 0; i < 2; i++ {
		if err := a.Send(b.Addr(), make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if st, want := n.Stats(), uint64(2*(10+DefaultDatagramOverhead)); st.WireBytes != want {
		t.Fatalf("WireBytes = %d, want %d", st.WireBytes, want)
	}
}
