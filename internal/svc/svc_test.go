package svc_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// newWorld is a world whose dapplets run a 20 ms RTO, closed when t ends.
func newWorld(t *testing.T, opts ...netsim.Option) *world.World {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, opts...)
	t.Cleanup(w.Close)
	return w
}

// echoWorld serves an upper-casing echo on "@echo" and returns a caller.
func echoWorld(t *testing.T) (*core.Dapplet, wire.InboxRef, *svc.Caller) {
	t.Helper()
	w := newWorld(t, netsim.WithSeed(1))
	server := w.Dapplet("hs", "t", "server")
	srv := svc.Serve(server, "@echo", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return &wire.Text{S: strings.ToUpper(req.(*wire.Text).S)}, nil
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	return server, srv.Ref(), caller
}

func TestCallRoundTrip(t *testing.T) {
	_, ref, caller := echoWorld(t)
	var rep wire.Text
	if err := caller.Call(context.Background(), ref, &wire.Text{S: "ping"}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.S != "PING" {
		t.Fatalf("reply = %q", rep.S)
	}
}

// TestCallExpiredContext pins the satellite contract: a Call under an
// already-expired context returns context.DeadlineExceeded — never a
// framework-specific timeout error — and does not transmit.
func TestCallExpiredContext(t *testing.T) {
	_, ref, caller := echoWorld(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	err := caller.Call(ctx, ref, &wire.Text{S: "late"}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCallCancelledMidWait cancels while the reply is outstanding (the
// server elects silence via NoReply) and checks the wait ends with
// context.Canceled.
func TestCallCancelledMidWait(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(2))
	server := w.Dapplet("hs", "t", "server")
	srv := svc.Serve(server, "@mute", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return nil, svc.NoReply
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- caller.Call(ctx, srv.Ref(), &wire.Text{S: "anyone?"}, nil) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never unblocked")
	}
}

func TestNoHandlerIsTypedError(t *testing.T) {
	_, ref, caller := echoWorld(t)
	err := caller.Call(context.Background(), ref, &wire.Bytes{B: []byte("x")}, nil)
	if !errors.Is(err, svc.ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

// TestTypedErrorCodeSurvivesWire checks an application error code crosses
// the wire as a value, dispatchable with errors.As — not a string match.
func TestTypedErrorCodeSurvivesWire(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(3))
	const codeBusy = svc.CodeUser + 7
	server := w.Dapplet("hs", "t", "server")
	srv := svc.Serve(server, "@busy", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return nil, &svc.Error{Code: codeBusy, Msg: "try later"}
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	err := caller.Call(context.Background(), srv.Ref(), &wire.Text{S: "?"}, nil)
	var se *svc.Error
	if !errors.As(err, &se) || se.Code != codeBusy || se.Msg != "try later" {
		t.Fatalf("err = %v, want code %d", err, codeBusy)
	}
}

// TestBareOneWayDispatch sends a registered message outside any svc
// frame: the server dispatches it by kind with no reply. The request is
// the lent envelope's body, so a handler that keeps it copies it, and
// the copies stay its own after later requests arrive.
func TestBareOneWayDispatch(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(4))
	var mu sync.Mutex
	var kept []wire.Text
	server := w.Dapplet("hs", "t", "server")
	srv := svc.Serve(server, "@oneway", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			if !c.OneWay() {
				t.Error("bare message did not dispatch one-way")
			}
			mu.Lock()
			kept = append(kept, *req.(*wire.Text))
			mu.Unlock()
			return nil, nil
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	fired := []string{"fire 0", "fire 1", "fire 2"}
	for _, s := range fired {
		if err := caller.Cast(srv.Ref(), "", &wire.Text{S: s}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(kept)
		mu.Unlock()
		if n == len(fired) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("one-way dispatches = %d, want %d", n, len(fired))
		}
		time.Sleep(time.Millisecond)
	}
	for i, m := range kept {
		if m.S != fired[i] {
			t.Errorf("kept request %d reads %q, want %q", i, m.S, fired[i])
		}
	}
}

// TestCallFirstReturnsOnFirstAck fans a request to three replicas, two of
// which are silent: the call returns as soon as the live one answers, and
// observe eventually sees every outcome.
func TestCallFirstReturnsOnFirstAck(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(5))
	handler := svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return &wire.Text{S: "ack"}, nil
		},
	}
	silent := svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return nil, svc.NoReply
		},
	}
	refs := []wire.InboxRef{
		svc.Serve(w.Dapplet("h0", "t", "r0"), "@r", silent).Ref(),
		svc.Serve(w.Dapplet("h1", "t", "r1"), "@r", handler).Ref(),
		svc.Serve(w.Dapplet("h2", "t", "r2"), "@r", silent).Ref(),
	}
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var mu sync.Mutex
	outcomes := 0
	start := time.Now()
	idx, rep, err := caller.CallFirst(ctx, refs, func(int) wire.Msg {
		return &wire.Text{S: "who's there"}
	}, func(i int, m wire.Msg, err error) {
		mu.Lock()
		outcomes++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("first ack from replica %d, want 1", idx)
	}
	if rep.(*wire.Text).S != "ack" {
		t.Fatalf("reply = %v", rep)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("first-ack return took %v (waited for stragglers?)", elapsed)
	}
	// The stragglers' outcomes land once the fan-out context expires.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := outcomes
		mu.Unlock()
		if n == len(refs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observe saw %d of %d outcomes", n, len(refs))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledCallLeaksNoGoroutines fences the caller's thread
// accounting: a burst of calls abandoned by cancellation must leave no
// goroutines behind once the dust settles.
func TestCancelledCallLeaksNoGoroutines(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(6))
	server := w.Dapplet("hs", "t", "server")
	srv := svc.Serve(server, "@mute", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return nil, svc.NoReply
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = caller.Call(ctx, srv.Ref(), &wire.Text{S: "void"}, nil)
		}()
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d after cancelled calls", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeferredReply answers parked requests from a later request's
// handler: what the parking handler returned is dropped, an error sent
// through the Reply arrives typed, and a one-way request's Reply sends
// nothing.
func TestDeferredReply(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(7))
	const codeLater = svc.CodeUser + 3
	parked := make(chan svc.Reply, 3)
	srv := svc.Serve(w.Dapplet("hs", "t", "server"), "@later", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			if req.(*wire.Text).S == "park" {
				parked <- c.Defer()
				return &wire.Text{S: "dropped: the reply was deferred"}, nil
			}
			(<-parked).Send(&wire.Text{S: "released"}, nil)
			(<-parked).Send(nil, &svc.Error{Code: codeLater, Msg: "refused later"})
			return &wire.Text{S: "done"}, nil
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := caller.Cast(srv.Ref(), "", &wire.Text{S: "park"}); err != nil {
		t.Fatal(err)
	}
	(<-parked).Send(&wire.Text{S: "to nobody"}, nil) // a one-way Reply: no-op

	p1, err := caller.Send(srv.Ref(), "", &wire.Text{S: "park"})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := caller.Send(srv.Ref(), "", &wire.Text{S: "park"})
	if err != nil {
		t.Fatal(err)
	}
	var done, got wire.Text
	if err := caller.Call(ctx, srv.Ref(), &wire.Text{S: "release"}, &done); err != nil || done.S != "done" {
		t.Fatalf("release = %q, %v", done.S, err)
	}
	if err := p1.Await(ctx, &got); err != nil || got.S != "released" {
		t.Fatalf("deferred reply = %q, %v", got.S, err)
	}
	var se *svc.Error
	if err := p2.Await(ctx, nil); !errors.As(err, &se) || se.Code != codeLater || se.Msg != "refused later" {
		t.Fatalf("deferred error = %v, want code %d", err, codeLater)
	}
}

// TestOnLate checks that a reply landing after Await gave up reaches the
// OnLate callback, and that a reply awaited in time never does.
func TestOnLate(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(8))
	parked := make(chan svc.Reply, 1)
	srv := svc.Serve(w.Dapplet("hs", "t", "server"), "@slow", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			parked <- c.Defer()
			return nil, nil
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))

	p, err := caller.Send(srv.Ref(), "", &wire.Text{S: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	late := make(chan wire.Msg, 1)
	p.OnLate(func(m wire.Msg, err error) { late <- m })
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Await(short, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	(<-parked).Send(&wire.Text{S: "late"}, nil)
	select {
	case m := <-late:
		if m.(*wire.Text).S != "late" {
			t.Fatalf("late reply = %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late reply never reached OnLate")
	}

	p, err = caller.Send(srv.Ref(), "", &wire.Text{S: "prompt"})
	if err != nil {
		t.Fatal(err)
	}
	p.OnLate(func(wire.Msg, error) { t.Error("a reply awaited in time reached OnLate") })
	(<-parked).Send(&wire.Text{S: "in time"}, nil)
	var got wire.Text
	if err := p.Await(context.Background(), &got); err != nil || got.S != "in time" {
		t.Fatalf("reply = %q, %v", got.S, err)
	}
}

// TestNewCallerAddsNoGoroutine: a caller matches replies on the
// goroutine that delivers them, so attaching one starts nothing.
func TestNewCallerAddsNoGoroutine(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(9))
	d := w.Dapplet("hc", "t", "client")
	before := runtime.NumGoroutine()
	callers := make([]*svc.Caller, 8)
	for i := range callers {
		callers[i] = svc.NewCaller(d)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d callers took the goroutine count from %d to %d", len(callers), before, after)
	}
}

// TestCallAllocs is the round trip's allocation budget: one Call and its
// echo over a netsim pair, counted across every goroutine it involves
// (the caller and both receive loops; the server runs no thread). A
// Call reuses its Pending, whose frames carry the request out and the
// reply back, and the server its Ctx and reply frame; the request's
// envelope and svc frame are decoded into the server's lent scratch and
// the reply into the caller's, and the request it carries into the
// server's own scratch. What is left is whatever the response body's
// decode into the caller's value allocates: nothing for wire.Bytes,
// which aliases the frame.
func TestCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w := newWorld(t, netsim.WithSeed(10))
	srv := svc.Serve(w.Dapplet("hs", "t", "server"), "@echo", svc.Handlers{
		"wire.bytes": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) { return req, nil },
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	ctx := context.Background()
	req := &wire.Bytes{B: make([]byte, 64)}
	var resp wire.Bytes
	call := func() {
		if err := caller.Call(ctx, srv.Ref(), req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	for range 2000 { // warm the pools, the free lists and the decoders
		call()
	}
	const budget = 0
	allocs := testing.AllocsPerRun(2000, call)
	t.Logf("%.2f allocations per call", allocs)
	if allocs > budget {
		t.Fatalf("one Call allocates %.2f times, want <= %d", allocs, budget)
	}
}

// TestSendAwaitAllocs is TestCallAllocs for the split form a fan-out
// uses: Send, then Await. Await hands the Pending back to the caller's
// free list once it has the reply, so the next Send reuses it and its
// channel, and the pair costs what a Call does.
func TestSendAwaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w := newWorld(t, netsim.WithSeed(10))
	srv := svc.Serve(w.Dapplet("hs", "t", "server"), "@echo", svc.Handlers{
		"wire.bytes": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) { return req, nil },
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	ctx := context.Background()
	req := &wire.Bytes{B: make([]byte, 64)}
	var resp wire.Bytes
	var pends [4]*svc.Pending
	fanOut := func() {
		for i := range pends {
			p, err := caller.Send(srv.Ref(), "", req)
			if err != nil {
				t.Fatal(err)
			}
			pends[i] = p
		}
		for _, p := range pends {
			if err := p.Await(ctx, &resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 500 { // warm the pools, the free lists and the decoders
		fanOut()
	}
	const budget = 0
	allocs := testing.AllocsPerRun(500, fanOut) / float64(len(pends))
	t.Logf("%.2f allocations per call", allocs)
	if allocs > budget {
		t.Fatalf("one Send and Await allocate %.2f times, want <= %d", allocs, budget)
	}
}

// TestServeAllocs is the server's share of a call: one correlated
// request over the wire into a served inbox and its answer back into an
// inline inbox on the sender. The server decodes the envelope and svc
// frame into its receive path's lent scratch, the request into its own,
// and answers from its own reply frame, so nothing is allocated.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w := newWorld(t, netsim.WithSeed(12))
	srv := svc.Serve(w.Dapplet("hs", "t", "server"), "@echo", svc.Handlers{
		"wire.bytes": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) { return req, nil },
	})
	client := w.Dapplet("hc", "t", "client")
	answered := make(chan uint64, 1)
	in := client.NewInlineInbox(func(env *wire.Envelope) {
		seq, _ := svc.ReplySeq(env.Body)
		answered <- seq
	})
	frame, err := svc.RequestFrame(7, in.Name(), &wire.Bytes{B: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		if err := client.SendDirect(srv.Ref(), "", frame); err != nil {
			t.Fatal(err)
		}
		if seq := <-answered; seq != 7 {
			t.Fatalf("answer to request %d, want 7", seq)
		}
	}
	for range 2000 { // warm the pools and the decoders
		serve()
	}
	const budget = 0
	allocs := testing.AllocsPerRun(2000, serve)
	t.Logf("%.2f allocations per request", allocs)
	if allocs > budget {
		t.Fatalf("one served request allocates %.2f times, want <= %d", allocs, budget)
	}
}

// TestCastAllocs is a one-way request's allocation budget: a bare
// registered message cast into a served inbox is dispatched as the lent
// body its envelope was decoded into, so neither side allocates.
func TestCastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w := newWorld(t, netsim.WithSeed(14))
	got := make(chan int, 1)
	srv := svc.Serve(w.Dapplet("hs", "t", "server"), "@sink", svc.Handlers{
		"wire.bytes": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			got <- len(req.(*wire.Bytes).B)
			return nil, nil
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	req := &wire.Bytes{B: make([]byte, 64)}
	cast := func() {
		if err := caller.Cast(srv.Ref(), "", req); err != nil {
			t.Fatal(err)
		}
		if n := <-got; n != len(req.B) {
			t.Fatalf("handler got %d bytes, want %d", n, len(req.B))
		}
	}
	for range 2000 { // warm the pools and the decoders
		cast()
	}
	const budget = 0
	allocs := testing.AllocsPerRun(2000, cast)
	t.Logf("%.2f allocations per cast", allocs)
	if allocs > budget {
		t.Fatalf("one cast allocates %.2f times, want <= %d", allocs, budget)
	}
}

// TestServeConcurrentArrivals: a served inbox's requests are dispatched
// on the goroutine that delivers them, which is the receive goroutine for
// requests off the wire and any goroutine that calls DeliverLocal (a
// relay delivery, a snapshot's channel replay). Several goroutines
// deliver requests that way while others call over the wire, and every
// call must get its own answer: the server's Ctx and reply frame are one
// dispatch's at a time.
func TestServeConcurrentArrivals(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(13))
	server := w.Dapplet("hs", "t", "server")
	srv := svc.Serve(server, "@echo", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return &wire.Text{S: strings.ToUpper(req.(*wire.Text).S)}, nil
		},
	})
	local, remote := w.Dapplet("hl", "t", "local"), w.Dapplet("hr", "t", "remote")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const workers, calls = 4, 100
	var wg sync.WaitGroup
	for g := range 2 * workers {
		byWire := g%2 == 0
		d := local
		if byWire {
			d = remote
		}
		caller := svc.NewCaller(d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				msg := fmt.Sprintf("g%d-%d", g, i)
				var p *svc.Pending
				var err error
				if byWire {
					p, err = caller.Send(srv.Ref(), "", &wire.Text{S: msg})
				} else {
					p, err = caller.DeliverRequest(server, srv.Ref(), &wire.Text{S: msg})
				}
				if err != nil {
					t.Errorf("%s: %v", msg, err)
					return
				}
				var rep wire.Text
				if err := p.Await(ctx, &rep); err != nil {
					t.Errorf("%s: %v", msg, err)
					return
				}
				if want := strings.ToUpper(msg); rep.S != want {
					t.Errorf("answer %q, want %q", rep.S, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBlockedOnLateDoesNotStallReplies: a late reply's OnLate callback
// may send, and a send can wait for the window, so it runs off the
// goroutine that matches replies. While one blocks, another call on the
// same caller still gets its reply.
func TestBlockedOnLateDoesNotStallReplies(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(11))
	parked := make(chan svc.Reply, 1)
	srv := svc.Serve(w.Dapplet("hs", "t", "server"), "@late", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			if req.(*wire.Text).S == "park" {
				parked <- c.Defer()
				return nil, nil
			}
			return req, nil
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))

	p, err := caller.Send(srv.Ref(), "", &wire.Text{S: "park"})
	if err != nil {
		t.Fatal(err)
	}
	entered, unblock := make(chan struct{}), make(chan struct{})
	defer close(unblock)
	p.OnLate(func(wire.Msg, error) {
		close(entered)
		<-unblock
	})
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Await(short, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	(<-parked).Send(&wire.Text{S: "late"}, nil)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("late reply never reached OnLate")
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	var got wire.Text
	if err := caller.Call(ctx, srv.Ref(), &wire.Text{S: "next"}, &got); err != nil || got.S != "next" {
		t.Fatalf("a call behind a blocked OnLate = %q, %v", got.S, err)
	}
}
