package world_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

var ctx = context.Background()

// idle is a behaviour that starts and does nothing.
func idle() core.Behavior { return core.BehaviorFunc(func(*core.Dapplet) error { return nil }) }

func TestLaunchRegistersInDirectory(t *testing.T) {
	w := world.New(transport.Config{}, netsim.WithSeed(1))
	defer w.Close()
	w.RT.Registry().Register("idle", idle)
	d, err := w.Launch(ctx, "h1", "idle", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !w.RT.Installed("h1", "idle") {
		t.Fatal("Launch did not install the type")
	}
	e, err := w.Dir.MustLookup(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if e.Addr != d.Addr() || e.Type != "idle" {
		t.Fatalf("entry = %+v, want addr %v type idle", e, d.Addr())
	}
	if _, err := w.Launch(ctx, "h1", "unregistered", "b"); err == nil {
		t.Fatal("launched an unregistered type")
	}
}

func TestDappletsTalk(t *testing.T) {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, netsim.WithSeed(2))
	defer w.Close()
	a, b := w.Dapplet("ha", "t", "a"), w.Dapplet("hb", "t", "b")
	in := b.Inbox("in")
	out := a.Outbox("out")
	out.Add(in.Ref())
	if err := out.Send(&wire.Text{S: "hello"}); err != nil {
		t.Fatal(err)
	}
	tctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := in.ReceiveEnvelopeContext(tctx); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryReplacesResolver(t *testing.T) {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, netsim.WithSeed(3))
	defer w.Close()
	w.RT.Registry().Register("idle", idle)
	cli, err := w.Directory(2, 2, directory.WithClientTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if w.Dir != cli || w.DirClient != cli {
		t.Fatal("Directory did not install its client as Dir")
	}
	if len(w.DirServices) != 2 || len(w.DirServices[0]) != 2 || len(w.DirServices[1]) != 2 {
		t.Fatalf("DirServices shape %d, want 2x2", len(w.DirServices))
	}
	d, err := w.Launch(ctx, "h1", "idle", "a")
	if err != nil {
		t.Fatal(err)
	}
	// The entry lives in the replicas, not only in the client's cache.
	found := 0
	for _, shard := range w.DirServices {
		for _, svc := range shard {
			if e, ok := svc.Lookup("a"); ok && e.Addr == d.Addr() {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("registration never reached a replica")
	}
	// A replica host is a fault-injection target.
	w.Net.Crash(world.DirReplicaHost(0, 0))
	w.Net.Crash(world.DirReplicaHost(1, 0))
	cli.FlushCache()
	if _, err := w.Dir.MustLookup(ctx, "a"); err != nil {
		t.Fatalf("lookup after losing one replica per shard: %v", err)
	}
	if _, err := w.Directory(0, 1); err == nil {
		t.Fatal("a cluster with no shards was accepted")
	}
}

// TestCloseOrder checks the teardown order: runtime dapplets stop while
// the free-standing ones still run, and both stop before the network
// closes.
func TestCloseOrder(t *testing.T) {
	w := world.New(transport.Config{}, netsim.WithSeed(4))
	w.RT.Registry().Register("idle", idle)
	rtD, err := w.Launch(ctx, "h1", "idle", "managed")
	if err != nil {
		t.Fatal(err)
	}
	free := w.Dapplet("h2", "t", "free")

	var mu sync.Mutex
	var order []string
	netOpen := func() bool {
		ep, err := w.Net.Host("probe").BindAny()
		if err != nil {
			return false
		}
		ep.Close()
		return true
	}
	rtD.OnStop(func() {
		mu.Lock()
		defer mu.Unlock()
		select {
		case <-free.Stopped():
			order = append(order, "free before managed")
		default:
		}
		order = append(order, "managed")
	})
	free.OnStop(func() {
		mu.Lock()
		defer mu.Unlock()
		if !netOpen() {
			order = append(order, "network before free")
		}
		order = append(order, "free")
	})
	w.Close()
	w.Close() // idempotent
	if netOpen() {
		t.Fatal("network still open after Close")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "managed" || order[1] != "free" {
		t.Fatalf("stop order = %v, want [managed free]", order)
	}
}

func TestConnPanicsAfterClose(t *testing.T) {
	w := world.New(transport.Config{})
	w.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Conn on a closed world did not panic")
		}
	}()
	w.Conn("h")
}

// TestCloseReleasesGoroutines builds a world with every part — hosted
// directory, runtime dapplets, free-standing dapplets — and requires
// the goroutine count back at its starting value after Close.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, netsim.WithSeed(5), netsim.WithShards(2))
	w.RT.Registry().Register("idle", idle)
	if _, err := w.Directory(1, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := w.Launch(ctx, "h-"+name, "idle", name); err != nil {
			t.Fatal(err)
		}
	}
	w.Dapplet("hf", "t", "free")
	w.Close()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 1s after Close, %d before\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
