package syncprim_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/syncprim"
	"repro/internal/tokens"
	"repro/internal/transport"
)

// ctx bounds nothing: these tests wait on their own timers.
var ctx = context.Background()

type dworld struct {
	t   *testing.T
	net *netsim.Network
}

func newDWorld(t *testing.T) *dworld {
	t.Helper()
	n := netsim.New()
	t.Cleanup(n.Close)
	return &dworld{t: t, net: n}
}

func (w *dworld) dapplet(host, name string) *core.Dapplet {
	w.t.Helper()
	ep, err := w.net.Host(host).BindAny()
	if err != nil {
		w.t.Fatal(err)
	}
	d := core.NewDapplet(name, "t", transport.NewSimConn(ep),
		core.WithTransportConfig(transport.Config{RTO: 20 * time.Millisecond}))
	w.t.Cleanup(d.Stop)
	return d
}

func TestDistBarrierAcrossDapplets(t *testing.T) {
	w := newDWorld(t)
	coordD := w.dapplet("hub", "coord")
	svc := syncprim.ServeBarriers(coordD)
	const parties = 5
	var reached, released atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		cli := syncprim.NewClient(w.dapplet(fmt.Sprintf("host%d", i), fmt.Sprintf("p%d", i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			reached.Add(1)
			round, err := cli.BarrierAwait(ctx, svc.Ref(), "phase1", parties)
			if err != nil {
				t.Error(err)
				return
			}
			if round != 0 {
				t.Errorf("round = %d", round)
			}
			released.Add(1)
		}()
	}
	wg.Wait()
	if reached.Load() != parties || released.Load() != parties {
		t.Fatalf("reached=%d released=%d", reached.Load(), released.Load())
	}
}

func TestDistBarrierHoldsUntilLastParty(t *testing.T) {
	w := newDWorld(t)
	svc := syncprim.ServeBarriers(w.dapplet("hub", "coord"))
	c1 := syncprim.NewClient(w.dapplet("h1", "p1"))
	c2 := syncprim.NewClient(w.dapplet("h2", "p2"))
	done := make(chan error, 1)
	go func() {
		_, err := c1.BarrierAwait(ctx, svc.Ref(), "b", 2)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("barrier released early")
	case <-time.After(100 * time.Millisecond):
	}
	if _, err := c2.BarrierAwait(ctx, svc.Ref(), "b", 2); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first party never released")
	}
}

func TestDistBarrierRounds(t *testing.T) {
	w := newDWorld(t)
	svc := syncprim.ServeBarriers(w.dapplet("hub", "coord"))
	cli := syncprim.NewClient(w.dapplet("h1", "solo"))
	for r := 0; r < 3; r++ {
		round, err := cli.BarrierAwait(ctx, svc.Ref(), "solo-b", 1)
		if err != nil {
			t.Fatal(err)
		}
		if round != r {
			t.Fatalf("round = %d, want %d", round, r)
		}
	}
	// Independent barrier names do not interfere.
	if round, err := cli.BarrierAwait(ctx, svc.Ref(), "other-b", 1); err != nil || round != 0 {
		t.Fatalf("other barrier round=%d err=%v", round, err)
	}
}

func TestDistRegisterFirstWriterWins(t *testing.T) {
	w := newDWorld(t)
	svc := syncprim.ServeRegisters(w.dapplet("hub", "reg-host"))
	c1 := syncprim.NewClient(w.dapplet("h1", "w1"))
	c2 := syncprim.NewClient(w.dapplet("h2", "w2"))

	won1, err := c1.RegisterSet(ctx, svc.Ref(), "x", []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	won2, err := c2.RegisterSet(ctx, svc.Ref(), "x", []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if !won1 || won2 {
		t.Fatalf("won1=%v won2=%v", won1, won2)
	}
	v, err := c2.RegisterGet(ctx, svc.Ref(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "first" {
		t.Fatalf("value = %q", v)
	}
}

func TestDistRegisterGetBlocksUntilSet(t *testing.T) {
	w := newDWorld(t)
	svc := syncprim.ServeRegisters(w.dapplet("hub", "reg-host"))
	reader := syncprim.NewClient(w.dapplet("h1", "reader"))
	writer := syncprim.NewClient(w.dapplet("h2", "writer"))

	got := make(chan []byte, 1)
	go func() {
		v, err := reader.RegisterGet(ctx, svc.Ref(), "pending")
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("Get returned before Set")
	case <-time.After(100 * time.Millisecond):
	}
	if _, err := writer.RegisterSet(ctx, svc.Ref(), "pending", []byte("now")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if string(v) != "now" {
			t.Fatalf("value = %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked reader never woke")
	}
}

func TestDistSemaphoreLimitsConcurrency(t *testing.T) {
	w := newDWorld(t)
	hub := w.dapplet("hub", "alloc-host")
	alloc := tokens.Serve(hub, tokens.Bag{"permits": 2})
	const workers = 6
	var in, max int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		mgr := tokens.NewManager(w.dapplet(fmt.Sprintf("h%d", i), fmt.Sprintf("w%d", i)), alloc.Ref())
		sem := syncprim.NewDistSemaphore(mgr, "permits")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if err := sem.P(ctx, 1); err != nil {
					t.Error(err)
					return
				}
				v := atomic.AddInt32(&in, 1)
				for {
					m := atomic.LoadInt32(&max)
					if v <= m || atomic.CompareAndSwapInt32(&max, m, v) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				atomic.AddInt32(&in, -1)
				if err := sem.V(1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if max > 2 {
		t.Fatalf("semaphore admitted %d concurrent holders, capacity 2", max)
	}
	if max < 2 {
		t.Logf("note: observed max concurrency %d (< capacity); scheduling artifact", max)
	}
	if !alloc.ConservationHolds() {
		t.Fatal("token conservation violated")
	}
}

// TestTwoClientsOneDapplet runs two clients on one dapplet against two
// register services concurrently: each must get its own replies. With a
// reply inbox shared between clients one's answer could wake the other.
func TestTwoClientsOneDapplet(t *testing.T) {
	w := newDWorld(t)
	regs := []*syncprim.RegisterService{
		syncprim.ServeRegisters(w.dapplet("hub-a", "reg-a")),
		syncprim.ServeRegisters(w.dapplet("hub-b", "reg-b")),
	}
	d := w.dapplet("h", "two-sessions")
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, reg := range regs {
		cli := syncprim.NewClient(d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				name, want := fmt.Sprint(round), fmt.Sprintf("%d/%d", i, round)
				if _, err := cli.RegisterSet(ctx, reg.Ref(), name, []byte(want)); err != nil {
					t.Errorf("client %d round %d: %v", i, round, err)
					return
				}
				if v, err := cli.RegisterGet(ctx, reg.Ref(), name); err != nil || string(v) != want {
					t.Errorf("client %d round %d: got %q, %v; want %q", i, round, v, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCancelledBarrierAwaitStillArrives pins the Client contract: a wait
// abandoned by its context returns ctx.Err(), but the arrival counts, so
// the next party completes the round alone.
func TestCancelledBarrierAwaitStillArrives(t *testing.T) {
	w := newDWorld(t)
	svc := syncprim.ServeBarriers(w.dapplet("hub", "coord"))
	c1 := syncprim.NewClient(w.dapplet("h1", "p1"))
	c2 := syncprim.NewClient(w.dapplet("h2", "p2"))
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := c1.BarrierAwait(short, svc.Ref(), "b", 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if round, err := c2.BarrierAwait(ctx, svc.Ref(), "b", 2); err != nil || round != 0 {
		t.Fatalf("round=%d err=%v, want round 0 released by the cancelled arrival", round, err)
	}
}
