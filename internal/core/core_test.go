package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// testWorld is a network plus a convenient dapplet factory.
type testWorld struct {
	t   *testing.T
	net *netsim.Network
}

func newWorld(t *testing.T, opts ...netsim.Option) *testWorld {
	t.Helper()
	n := netsim.New(opts...)
	t.Cleanup(n.Close)
	return &testWorld{t: t, net: n}
}

func (w *testWorld) dapplet(host, name string) *Dapplet {
	w.t.Helper()
	ep, err := w.net.Host(host).BindAny()
	if err != nil {
		w.t.Fatal(err)
	}
	d := NewDapplet(name, "test", transport.NewSimConn(ep),
		WithTransportConfig(transport.Config{RTO: 20 * time.Millisecond}))
	w.t.Cleanup(d.Stop)
	return d
}

// recvWithin is ReceiveEnvelopeContext under a deadline of d: it returns
// context.DeadlineExceeded if nothing arrives in time.
func recvWithin(in *Inbox, d time.Duration) (*wire.Envelope, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return in.ReceiveEnvelopeContext(ctx)
}

func recvText(t *testing.T, in *Inbox) string {
	t.Helper()
	env, err := recvWithin(in, 5*time.Second)
	if err != nil {
		t.Fatalf("receive on %s: %v", in.Name(), err)
	}
	return env.Body.(*wire.Text).S
}

func TestPointToPointChannel(t *testing.T) {
	w := newWorld(t)
	d1 := w.dapplet("caltech", "d1")
	d3 := w.dapplet("rice", "d3")
	in := d3.Inbox("main")
	out := d1.Outbox("out")
	out.Add(in.Ref())
	if err := out.Send(&wire.Text{S: "hello"}); err != nil {
		t.Fatal(err)
	}
	if got := recvText(t, in); got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestFigure3Topology(t *testing.T) {
	// Figure 3: dapplet 1's outbox is bound to dapplet 3's inbox;
	// dapplet 2's outbox is bound to the inboxes of dapplets 3, 4 and 5.
	w := newWorld(t)
	d1 := w.dapplet("h1", "d1")
	d2 := w.dapplet("h2", "d2")
	d3 := w.dapplet("h3", "d3")
	d4 := w.dapplet("h4", "d4")
	d5 := w.dapplet("h5", "d5")

	in3, in4, in5 := d3.Inbox("in"), d4.Inbox("in"), d5.Inbox("in")
	out1, out2 := d1.Outbox("out"), d2.Outbox("out")
	out1.Add(in3.Ref())
	out2.Add(in3.Ref())
	out2.Add(in4.Ref())
	out2.Add(in5.Ref())

	if err := out1.Send(&wire.Text{S: "from1"}); err != nil {
		t.Fatal(err)
	}
	if err := out2.Send(&wire.Text{S: "from2"}); err != nil {
		t.Fatal(err)
	}
	// Dapplet 3's inbox is bound to both outboxes: it receives both.
	got := map[string]bool{recvText(t, in3): true, recvText(t, in3): true}
	if !got["from1"] || !got["from2"] {
		t.Fatalf("d3 received %v", got)
	}
	// Dapplets 4 and 5 see only d2's multicast.
	if recvText(t, in4) != "from2" || recvText(t, in5) != "from2" {
		t.Fatal("fan-out copies missing")
	}
	if in4.Len() != 0 || in5.Len() != 0 {
		t.Fatal("unexpected extra messages")
	}
}

func TestChannelFIFO(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(4))
	// Reordering at the datagram layer must not break channel FIFO.
	w.net.SetLink("a", "b", netsim.LinkParams{Reorder: 0.4, Dup: 0.1})
	src := w.dapplet("a", "src")
	dst := w.dapplet("b", "dst")
	in := dst.Inbox("in")
	out := src.Outbox("out")
	out.Add(in.Ref())
	const total = 100
	for i := 0; i < total; i++ {
		if err := out.Send(&wire.Text{S: fmt.Sprintf("%03d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if got, want := recvText(t, in), fmt.Sprintf("%03d", i); got != want {
			t.Fatalf("position %d: got %q want %q", i, got, want)
		}
	}
}

func TestOutboxAddIdempotentDeleteStrict(t *testing.T) {
	w := newWorld(t)
	d1 := w.dapplet("h", "d1")
	d2 := w.dapplet("h", "d2")
	in := d2.Inbox("in")
	out := d1.Outbox("out")
	out.Add(in.Ref())
	out.Add(in.Ref()) // "appends ... if it is not already on the list"
	if n := len(out.Destinations()); n != 1 {
		t.Fatalf("destinations = %d, want 1", n)
	}
	if err := out.Send(&wire.Text{S: "once"}); err != nil {
		t.Fatal(err)
	}
	if got := recvText(t, in); got != "once" {
		t.Fatal("message lost")
	}
	if _, err := recvWithin(in, 50*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("duplicate binding delivered twice")
	}
	if err := out.Delete(in.Ref()); err != nil {
		t.Fatal(err)
	}
	// Second delete: "otherwise throws an exception".
	if err := out.Delete(in.Ref()); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v, want ErrNotBound", err)
	}
}

func TestSendAfterDeleteDoesNotDeliver(t *testing.T) {
	w := newWorld(t)
	d1 := w.dapplet("h", "s1")
	d2 := w.dapplet("h", "s2")
	in := d2.Inbox("in")
	out := d1.Outbox("out")
	out.Add(in.Ref())
	if err := out.Delete(in.Ref()); err != nil {
		t.Fatal(err)
	}
	if err := out.Send(&wire.Text{S: "ghost"}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(in, 50*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("message delivered on deleted channel")
	}
}

func TestNamedInboxes(t *testing.T) {
	// §3.2: "a professor dapplet may have inboxes called students and
	// grades"; an outbox binds to the student inbox by name.
	w := newWorld(t)
	prof := w.dapplet("caltech", "professor")
	stud := w.dapplet("rice", "student")
	students := prof.Inbox("students")
	grades := prof.Inbox("grades")
	out := stud.Outbox("homework")
	out.Add(wire.InboxRef{Dapplet: prof.Addr(), Inbox: "students"})
	if err := out.Send(&wire.Text{S: "essay"}); err != nil {
		t.Fatal(err)
	}
	if got := recvText(t, students); got != "essay" {
		t.Fatalf("students got %q", got)
	}
	if grades.Len() != 0 {
		t.Fatal("grades inbox received student mail")
	}
}

func TestAnonymousInboxNamesUnique(t *testing.T) {
	w := newWorld(t)
	d := w.dapplet("h", "d")
	a, b := d.NewInbox(), d.NewInbox()
	if a.Name() == b.Name() {
		t.Fatalf("duplicate anonymous names %q", a.Name())
	}
	if _, ok := d.LookupInbox(a.Name()); !ok {
		t.Fatal("anonymous inbox not addressable")
	}
}

func TestInboxTryReceive(t *testing.T) {
	w := newWorld(t)
	d1 := w.dapplet("h", "a1")
	d2 := w.dapplet("h", "a2")
	in := d2.Inbox("in")
	if in.Len() != 0 {
		t.Fatal("fresh inbox not empty")
	}
	if _, ok := in.TryReceive(); ok {
		t.Fatal("TryReceive on empty inbox returned a message")
	}
	out := d1.Outbox("out")
	out.Add(in.Ref())
	if err := out.Send(&wire.Text{S: "wake"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); in.Len() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the message never arrived")
		}
	}
	if m, ok := in.TryReceive(); !ok || m.(*wire.Text).S != "wake" {
		t.Fatalf("TryReceive = %v %v", m, ok)
	}
}

func TestEnvelopeMetadata(t *testing.T) {
	w := newWorld(t)
	src := w.dapplet("caltech", "env-src")
	dst := w.dapplet("rice", "env-dst")
	in := dst.Inbox("in")
	out := src.Outbox("updates")
	out.SetSession("cal-1")
	out.Add(in.Ref())
	if err := out.Send(&wire.Text{S: "m"}); err != nil {
		t.Fatal(err)
	}
	env, err := recvWithin(in, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if env.FromDapplet != src.Addr() || env.FromOutbox != "updates" || env.Session != "cal-1" {
		t.Fatalf("envelope header = %+v", env)
	}
	if env.Lamport == 0 {
		t.Fatal("message not clock-stamped")
	}
}

func TestClockSnapshotCriterionAcrossDapplets(t *testing.T) {
	w := newWorld(t)
	a := w.dapplet("h1", "clk-a")
	b := w.dapplet("h2", "clk-b")
	in := b.Inbox("in")
	out := a.Outbox("out")
	out.Add(in.Ref())
	// Drive a's clock ahead.
	for i := 0; i < 100; i++ {
		a.Clock().Tick()
	}
	if err := out.Send(&wire.Text{S: "t"}); err != nil {
		t.Fatal(err)
	}
	env, err := recvWithin(in, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if b.Clock().Now() <= env.Lamport {
		t.Fatalf("receiver clock %d does not exceed send stamp %d", b.Clock().Now(), env.Lamport)
	}
}

func TestHandlerInbox(t *testing.T) {
	w := newWorld(t)
	svc := w.dapplet("h", "svc")
	cli := w.dapplet("h", "cli")
	got := make(chan string, 1)
	svc.Handle("@control", func(env *wire.Envelope) {
		got <- env.Body.(*wire.Text).S
	})
	out := cli.Outbox("out")
	out.Add(wire.InboxRef{Dapplet: svc.Addr(), Inbox: "@control"})
	if err := out.Send(&wire.Text{S: "ping"}); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "ping" {
			t.Fatalf("handler got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never invoked")
	}
}

func TestDeadLetters(t *testing.T) {
	w := newWorld(t)
	d1 := w.dapplet("h", "dl1")
	d2 := w.dapplet("h", "dl2")
	out := d1.Outbox("out")
	out.Add(wire.InboxRef{Dapplet: d2.Addr(), Inbox: "no-such-inbox"})
	if err := out.Send(&wire.Text{S: "lost"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d2.DeadLetters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead letter never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeliverWithoutHeader: a frame that left its header out, from a peer
// that never sent one, reaches the sink with no header. It is a dead
// letter, even when its payload alone is a whole valid envelope.
func TestDeliverWithoutHeader(t *testing.T) {
	w := newWorld(t)
	d := w.dapplet("h", "nohdr")
	in := d.Inbox("mail")
	whole, err := wire.MarshalEnvelope(&wire.Envelope{To: wire.InboxRef{Inbox: "mail"}, Lamport: 1, Body: &wire.Text{S: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	d.deliver(nil, whole, netsim.Addr{Host: "peer", Port: 1}) // no traffic: the receive goroutine is idle
	if n := d.DeadLetters(); n != 1 {
		t.Fatalf("DeadLetters = %d, want 1", n)
	}
	if env, err := recvWithin(in, 20*time.Millisecond); err == nil {
		t.Fatalf("delivered %+v", env)
	}
}

func TestStopUnblocksReceive(t *testing.T) {
	w := newWorld(t)
	d := w.dapplet("h", "stopper")
	in := d.Inbox("in")
	done := make(chan error, 1)
	go func() { _, err := in.Receive(); done <- err }()
	time.Sleep(10 * time.Millisecond)
	d.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Receive not unblocked by Stop")
	}
}

func TestSendDirect(t *testing.T) {
	w := newWorld(t)
	a := w.dapplet("h", "sd-a")
	b := w.dapplet("h", "sd-b")
	in := b.Inbox("ctl")
	if err := a.SendDirect(in.Ref(), "sess-9", &wire.Text{S: "direct"}); err != nil {
		t.Fatal(err)
	}
	env, err := recvWithin(in, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if env.Body.(*wire.Text).S != "direct" || env.Session != "sess-9" {
		t.Fatalf("env = %+v", env)
	}
}

func TestRuntimeInstallLaunch(t *testing.T) {
	n := netsim.New()
	defer n.Close()
	reg := NewRegistry()
	started := make(chan string, 4)
	reg.Register("calendar", func() Behavior {
		return BehaviorFunc(func(d *Dapplet) error {
			d.Inbox("requests")
			started <- d.Name()
			return nil
		})
	})
	rt := NewRuntime(n, reg)
	defer rt.StopAll()

	// Launch before install must fail.
	if _, err := rt.Launch("caltech", "calendar", "mani-cal"); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("err = %v, want ErrNotInstalled", err)
	}
	if err := rt.Install("caltech", "calendar"); err != nil {
		t.Fatal(err)
	}
	if !rt.Installed("caltech", "calendar") {
		t.Fatal("Installed lies")
	}
	d, err := rt.Launch("caltech", "calendar", "mani-cal")
	if err != nil {
		t.Fatal(err)
	}
	if <-started != "mani-cal" {
		t.Fatal("behaviour not started")
	}
	if d.Addr().Host != "caltech" {
		t.Fatalf("dapplet on host %q", d.Addr().Host)
	}
	if _, ok := d.LookupInbox("requests"); !ok {
		t.Fatal("behaviour-created inbox missing")
	}
	// Duplicate instance names rejected.
	if _, err := rt.Launch("caltech", "calendar", "mani-cal"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Unknown type cannot even install.
	if err := rt.Install("caltech", "nonesuch"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
	if got, ok := rt.Dapplet("mani-cal"); !ok || got != d {
		t.Fatal("runtime lookup failed")
	}
	if ds := rt.Dapplets(); len(ds) != 1 {
		t.Fatalf("Dapplets = %d entries", len(ds))
	}
}

func TestRuntimeStartErrorStopsDapplet(t *testing.T) {
	n := netsim.New()
	defer n.Close()
	reg := NewRegistry()
	reg.Register("bad", func() Behavior {
		return BehaviorFunc(func(d *Dapplet) error { return errors.New("boom") })
	})
	rt := NewRuntime(n, reg)
	defer rt.StopAll()
	if err := rt.Install("h", "bad"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Launch("h", "bad", "b1"); err == nil {
		t.Fatal("start error swallowed")
	}
	if _, ok := rt.Dapplet("b1"); ok {
		t.Fatal("failed dapplet left registered")
	}
}

func TestSendFailureSurfacesOnPartition(t *testing.T) {
	w := newWorld(t)
	w.net.Partition([]string{"west"}, []string{"east"})
	a := w.dapplet("west", "pf-a")
	b := w.dapplet("east", "pf-b")
	out := a.Outbox("o")
	out.Add(wire.InboxRef{Dapplet: b.Addr(), Inbox: "in"})
	if err := out.Send(&wire.Text{S: "doomed"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); a.Transport().Stats().Failures == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no failure surfaced")
		}
	}
	if got := a.Transport().Stats().Failures; got != 1 {
		t.Fatalf("Failures = %d, want 1", got)
	}
}

func TestRuntimeCrashRestartKeepsStore(t *testing.T) {
	n := netsim.New(netsim.WithSeed(21))
	t.Cleanup(n.Close)
	reg := NewRegistry()
	reg.Register("counter", Factory(func() Behavior {
		return BehaviorFunc(func(d *Dapplet) error {
			var boots int
			if _, err := d.Store().Get("boots", &boots); err != nil {
				return err
			}
			return d.Store().Set("boots", boots+1)
		})
	}))
	rt := NewRuntime(n, reg)
	t.Cleanup(rt.StopAll)
	if err := rt.Install("h", "counter"); err != nil {
		t.Fatal(err)
	}
	d, err := rt.Launch("h", "counter", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Set("payload", "survives"); err != nil {
		t.Fatal(err)
	}
	oldAddr := d.Addr()

	if err := rt.Crash("c1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.Dapplet("c1"); ok {
		t.Fatal("crashed dapplet still registered")
	}
	if err := rt.Crash("c1"); err == nil {
		t.Fatal("double crash succeeded")
	}

	d2, err := rt.Restart("c1")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Addr() == oldAddr {
		t.Fatal("restart reused the crashed incarnation's port")
	}
	if got := rt.Incarnation("c1"); got != 1 {
		t.Fatalf("incarnation = %d, want 1", got)
	}
	var payload string
	if ok, err := d2.Store().Get("payload", &payload); err != nil || !ok || payload != "survives" {
		t.Fatalf("store did not survive crash: %q, %v, %v", payload, ok, err)
	}
	var boots int
	if _, err := d2.Store().Get("boots", &boots); err != nil {
		t.Fatal(err)
	}
	if boots != 2 {
		t.Fatalf("behaviour ran %d times, want 2 (restart re-runs Start)", boots)
	}
	// Restart of a live dapplet must fail.
	if _, err := rt.Restart("c1"); err == nil {
		t.Fatal("restart of a live dapplet succeeded")
	}
}

func TestLaunchReusingCrashedNameStartsFreshLineage(t *testing.T) {
	n := netsim.New(netsim.WithSeed(22))
	t.Cleanup(n.Close)
	reg := NewRegistry()
	reg.Register("t1", Factory(func() Behavior { return BehaviorFunc(func(*Dapplet) error { return nil }) }))
	reg.Register("t2", Factory(func() Behavior { return BehaviorFunc(func(*Dapplet) error { return nil }) }))
	rt := NewRuntime(n, reg)
	t.Cleanup(rt.StopAll)
	for _, ht := range [][2]string{{"h1", "t1"}, {"h2", "t2"}} {
		if err := rt.Install(ht[0], ht[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Launch("h1", "t1", "x"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Crash("x"); err != nil {
		t.Fatal(err)
	}
	// Reusing the name with different host/type replaces the lineage.
	d2, err := rt.Launch("h2", "t2", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Store().Set("mark", "second"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Crash("x"); err != nil {
		t.Fatal(err)
	}
	d3, err := rt.Restart("x")
	if err != nil {
		t.Fatal(err)
	}
	if d3.Type() != "t2" {
		t.Fatalf("restart resurrected type %q, want the second lineage %q", d3.Type(), "t2")
	}
	var mark string
	if ok, _ := d3.Store().Get("mark", &mark); !ok || mark != "second" {
		t.Fatalf("restart used the wrong store (mark=%q ok=%v)", mark, ok)
	}
}

// goroutinesNaming counts the goroutines whose stack names fn.
func goroutinesNaming(fn string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) {
			count++
		}
	}
	return count
}

// TestReceiveGoroutines checks the receive side costs a dapplet one
// goroutine: the transport's receive loop, which delivers into the
// inboxes itself, with no hand-off goroutine behind it, and which is gone
// once the dapplet stops.
func TestReceiveGoroutines(t *testing.T) {
	const recvLoop = "transport.(*Reliable).recvLoop"
	base := goroutinesNaming(recvLoop)
	w := newWorld(t)
	const n = 6
	daps := make([]*Dapplet, n)
	for i := range daps {
		daps[i] = w.dapplet(fmt.Sprintf("h%d", i), fmt.Sprintf("d%d", i))
		daps[i].Inbox("in")
	}
	for _, from := range daps {
		for _, to := range daps {
			if to != from {
				if err := from.SendDirect(wire.InboxRef{Dapplet: to.Addr(), Inbox: "in"}, "", &wire.Text{S: from.Name()}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, d := range daps {
		for range n - 1 {
			recvText(t, d.Inbox("in"))
		}
	}
	if got := goroutinesNaming("core.(*Dapplet)."); got != 0 {
		t.Fatalf("%d goroutines run in Dapplet code after delivery, want 0", got)
	}
	if got := goroutinesNaming(recvLoop); got != base+n {
		t.Fatalf("%d receive loops for %d dapplets, want %d", got-base, n, n)
	}
	for _, d := range daps {
		d.Stop()
	}
	for deadline := time.Now().Add(5 * time.Second); goroutinesNaming(recvLoop) != base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d receive loops left after Stop", goroutinesNaming(recvLoop)-base)
		}
	}
}

// TestInlineInbox: an inline inbox's func runs on the goroutine that
// delivers each arrival, in order — the receive loop for frames off the
// wire, the caller for DeliverLocal — and nothing is queued. Once the
// inbox closes, arrivals are dropped.
func TestInlineInbox(t *testing.T) {
	w := newWorld(t)
	src, dst := w.dapplet("a", "src"), w.dapplet("b", "dst")
	type arrival struct {
		text     string
		recvLoop bool
	}
	got := make(chan arrival, 8)
	in := dst.NewInlineInbox(func(env *wire.Envelope) {
		buf := make([]byte, 4096)
		stack := string(buf[:runtime.Stack(buf, false)])
		got <- arrival{env.Body.(*wire.Text).S, strings.Contains(stack, "recvLoop")}
	})
	for _, s := range []string{"one", "two", "three"} {
		if err := src.SendDirect(in.Ref(), "", &wire.Text{S: s}); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"one", "two", "three"} {
		select {
		case a := <-got:
			if a.text != want || !a.recvLoop {
				t.Fatalf("arrival %q (on the receive loop: %v), want %q on it", a.text, a.recvLoop, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never arrived", want)
		}
	}
	local := &wire.Envelope{To: in.Ref(), Body: &wire.Text{S: "local"}}
	dst.DeliverLocal(local)
	select {
	case a := <-got:
		if a.text != "local" || a.recvLoop {
			t.Fatalf("DeliverLocal ran the func for %q on the receive loop: %v", a.text, a.recvLoop)
		}
	default:
		t.Fatal("DeliverLocal returned before the inline func ran")
	}
	if in.Len() != 0 {
		t.Fatal("an inline inbox queued an arrival")
	}
	dst.Stop()
	dst.DeliverLocal(local)
	if len(got) != 0 {
		t.Fatal("a closed inline inbox still ran its func")
	}
}

// An inline inbox's func runs on the receive goroutine, and a send it
// makes to a peer whose window is full returns at once: the message
// waits in the transport's backlog and leaves once the window opens.
func TestInlineInboxSendsPastFullWindow(t *testing.T) {
	w := newWorld(t)
	cfg := transport.Config{RTO: 15 * time.Millisecond, MaxRetries: 1000, Window: 2}
	mk := func(host, name string) *Dapplet {
		ep, err := w.net.Host(host).BindAny()
		if err != nil {
			t.Fatal(err)
		}
		d := NewDapplet(name, "test", transport.NewSimConn(ep), WithTransportConfig(cfg))
		t.Cleanup(d.Stop)
		return d
	}
	a, b, c := mk("a", "a"), mk("b", "b"), mk("c", "c")
	far := c.Inbox("far")
	w.net.Partition([]string{"a", "b"}, []string{"c"})
	for i := 0; i < cfg.Window; i++ { // a's window to c fills and stays full
		if err := a.SendDirect(far.Ref(), "", &wire.Text{S: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 2)
	in := a.NewInlineInbox(func(env *wire.Envelope) {
		sent <- a.SendDirect(far.Ref(), "", env.Body)
	})
	for i := cfg.Window; i < cfg.Window+2; i++ { // the second arrives only if the first's send returned
		if err := b.SendDirect(in.Ref(), "", &wire.Text{S: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-sent:
			if err != nil {
				t.Fatalf("the inline func's send: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a send from an inline inbox to a full window never returned")
		}
	}
	w.net.Heal()
	for i := 0; i < cfg.Window+2; i++ {
		if got := recvText(t, far); got != fmt.Sprint(i) {
			t.Fatalf("c's message %d is %q", i, got)
		}
	}
}
