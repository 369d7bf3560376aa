package svc_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// frame: the server dispatches it by kind with no reply.
func TestBareOneWayDispatch(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(4))
	var got atomic.Int64
	server := w.Dapplet("hs", "t", "server")
	srv := svc.Serve(server, "@oneway", svc.Handlers{
		"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			if !c.OneWay() {
				t.Error("bare message did not dispatch one-way")
			}
			got.Add(1)
			return nil, nil
		},
	})
	caller := svc.NewCaller(w.Dapplet("hc", "t", "client"))
	for i := 0; i < 3; i++ {
		if err := caller.Cast(srv.Ref(), "", &wire.Text{S: "fire"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("one-way dispatches = %d, want 3", got.Load())
		}
		time.Sleep(time.Millisecond)
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
