package directory_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

const testRTO = 20 * time.Millisecond

func newDap(t *testing.T, net *netsim.Network, host, name string) *core.Dapplet {
	t.Helper()
	ep, err := net.Host(host).BindAny()
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDapplet(name, "t", transport.NewSimConn(ep),
		core.WithTransportConfig(transport.Config{RTO: testRTO}))
	t.Cleanup(d.Stop)
	return d
}

// buildCluster hosts shards x replicas directory service dapplets, with
// replica r of shard s on host "dir-s-r".
func buildCluster(t *testing.T, net *netsim.Network, shards, replicas int) (*directory.Cluster, [][]*directory.Service) {
	t.Helper()
	refs := make([][]wire.InboxRef, shards)
	svcs := make([][]*directory.Service, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			d := newDap(t, net, fmt.Sprintf("dir-%d-%d", s, r), fmt.Sprintf("dir-%d-%d", s, r))
			svc := directory.Serve(d)
			refs[s] = append(refs[s], svc.Ref())
			svcs[s] = append(svcs[s], svc)
		}
	}
	cl, err := directory.NewCluster(refs)
	if err != nil {
		t.Fatal(err)
	}
	return cl, svcs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		seen := make(map[int]bool)
		for i := 0; i < 512; i++ {
			name := fmt.Sprintf("dapplet-%d", i)
			s := directory.ShardOf(name, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", name, shards, s)
			}
			if s != directory.ShardOf(name, shards) {
				t.Fatalf("ShardOf not stable for %q", name)
			}
			seen[s] = true
		}
		if len(seen) != shards {
			t.Fatalf("shards=%d: only %d shards used over 512 names", shards, len(seen))
		}
	}
}

func TestClientRegisterLookupRemove(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.WithSeed(1))
	defer net.Close()
	cl, _ := buildCluster(t, net, 2, 2)
	cliD := newDap(t, net, "hc", "client")
	c := directory.NewClient(cliD, cl)

	e := directory.Entry{Name: "mani-cal", Type: "calendar", Addr: netsim.Addr{Host: "x", Port: 7}}
	if err := c.Register(ctx, e); err != nil {
		t.Fatal(err)
	}
	got, err := c.MustLookup(ctx, "mani-cal")
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("lookup = %+v, want %+v", got, e)
	}
	if _, ok := c.Lookup(ctx, "ghost"); ok {
		t.Fatal("phantom entry resolved")
	}
	if _, err := c.MustLookup(ctx, "ghost"); err == nil {
		t.Fatal("missing name did not error")
	}
	if err := c.Remove(ctx, "mani-cal"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(ctx, "mani-cal"); ok {
		t.Fatal("removed entry still resolves")
	}
}

// Register returns on the first replica's ack; the preferred replica's
// ack may land later, after a Remove of the same name. It must not bring
// the removed entry back into the cache, where no event would evict it.
func TestClientLateRegisterAckAfterRemove(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.WithSeed(1), netsim.WithTimeScale(1))
	defer net.Close()
	cl, svcs := buildCluster(t, net, 1, 2)
	const slow = 40 * time.Millisecond
	net.SetLinkDelay("hc", "dir-0-0", netsim.Constant(slow)) // the preferred replica answers late
	c := directory.NewClient(newDap(t, net, "hc", "client"), cl, directory.WithClientTimeout(100*time.Millisecond))

	e := directory.Entry{Name: "mani-cal", Type: "calendar", Addr: netsim.Addr{Host: "x", Port: 7}}
	if err := c.Register(ctx, e); err != nil { // acked first by dir-0-1
		t.Fatal(err)
	}
	waitFor(t, "the preferred replica to apply the registration", func() bool {
		_, _, ok := svcs[0][0].Lookup(e.Name)
		return ok
	})
	// Its ack is on the wire now, and lands whatever happens next; the
	// cut keeps the Remove from reaching it.
	net.Partition([]string{"hc", "dir-0-1"}, []string{"dir-0-0"})
	if err := c.Remove(ctx, e.Name); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * slow) // the late ack lands
	if got, ok := c.Lookup(ctx, e.Name); ok {
		t.Fatalf("removed entry resolves to %+v: a late registration ack brought it back", got)
	}
}

func TestClientCacheHitPath(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.WithSeed(2))
	defer net.Close()
	cl, _ := buildCluster(t, net, 1, 1)
	cliD := newDap(t, net, "hc", "client")
	c := directory.NewClient(cliD, cl)

	e := directory.Entry{Name: "n1", Type: "t", Addr: netsim.Addr{Host: "x", Port: 1}}
	if err := c.Register(ctx, e); err != nil {
		t.Fatal(err)
	}
	// Registration primes the cache; every lookup after it is a hit.
	for i := 0; i < 5; i++ {
		if _, ok := c.Lookup(ctx, "n1"); !ok {
			t.Fatal("lookup failed")
		}
	}
	st := c.Stats()
	if st.Hits != 5 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 5 hits 0 misses", st)
	}
	// A flushed cache forces the remote path once, then hits again.
	c.FlushCache()
	c.Lookup(ctx, "n1")
	c.Lookup(ctx, "n1")
	st = c.Stats()
	if st.Hits != 6 || st.Misses != 1 {
		t.Fatalf("stats after flush = %+v, want 6 hits 1 miss", st)
	}
}

// TestStaleVersionEviction drives the cache-coherence protocol: another
// client's re-registration and removal must invalidate this client's
// version-stamped cache entries through pushed watch events.
func TestStaleVersionEviction(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.WithSeed(3))
	defer net.Close()
	cl, _ := buildCluster(t, net, 1, 1)
	a := directory.NewClient(newDap(t, net, "ha", "a"), cl)
	b := directory.NewClient(newDap(t, net, "hb", "b"), cl)

	old := directory.Entry{Name: "n", Type: "t", Addr: netsim.Addr{Host: "x", Port: 1}}
	if err := a.Register(ctx, old); err != nil {
		t.Fatal(err)
	}
	if e, ok := a.Lookup(ctx, "n"); !ok || e.Addr.Port != 1 {
		t.Fatalf("initial lookup = %+v %v", e, ok)
	}

	// B re-registers the name at a new address: the event must refresh
	// A's cached entry in place (no extra remote round trip). B reads the
	// name first: writes are ordered by Lamport stamp, and until B has
	// heard from the replica its clock may still be behind A's write.
	if e, ok := b.Lookup(ctx, "n"); !ok || e.Addr.Port != 1 {
		t.Fatalf("b's lookup = %+v %v", e, ok)
	}
	fresh := directory.Entry{Name: "n", Type: "t", Addr: netsim.Addr{Host: "y", Port: 2}}
	if err := b.Register(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cache refresh", func() bool {
		e, ok := a.Lookup(ctx, "n")
		return ok && e.Addr.Port == 2
	})
	missesBefore := a.Stats().Misses
	if e, _ := a.Lookup(ctx, "n"); e.Addr != fresh.Addr {
		t.Fatalf("stale entry survived: %+v", e)
	}
	if got := a.Stats().Misses; got != missesBefore {
		t.Fatalf("refresh went remote: misses %d -> %d", missesBefore, got)
	}

	// B removes the name: the event must evict A's cache, and the next
	// lookup goes remote and reports the name gone.
	if err := b.Remove(ctx, "n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cache eviction", func() bool {
		_, ok := a.Lookup(ctx, "n")
		return !ok
	})
	if a.Stats().Evictions == 0 {
		t.Fatal("no eviction counted")
	}
}

// TestConcurrentRegisterRemoveLookup exercises the client and service
// under racing mutations from several goroutines (run with -race).
func TestConcurrentRegisterRemoveLookup(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.WithSeed(4))
	defer net.Close()
	cl, svcs := buildCluster(t, net, 2, 2)
	a := directory.NewClient(newDap(t, net, "ha", "a"), cl)
	b := directory.NewClient(newDap(t, net, "hb", "b"), cl)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := a
			if g%2 == 1 {
				c = b
			}
			// Names are disjoint per goroutine, so each name's mutation
			// sequence is a single client's — totally ordered on every
			// replica by the reliable layer — and the replicas converge.
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("g%d-n%d", g, i%4)
				e := directory.Entry{Name: name, Type: "t", Addr: netsim.Addr{Host: "h", Port: uint16(g + 1)}}
				switch i % 3 {
				case 0:
					if err := c.Register(ctx, e); err != nil {
						t.Error(err)
						return
					}
				case 1:
					c.Lookup(ctx, name)
				case 2:
					if err := c.Remove(ctx, name); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Both replicas of each shard converged to the same live-name count
	// once the fanned-out mutations all land.
	waitFor(t, "replica convergence", func() bool {
		for s := range svcs {
			for _, svc := range svcs[s][1:] {
				if svc.Len() != svcs[s][0].Len() {
					return false
				}
			}
		}
		return true
	})
}

// TestFailoverToSurvivingReplica crashes the replica a client prefers and
// checks lookups keep succeeding through the shard's surviving replica.
func TestFailoverToSurvivingReplica(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.WithSeed(5))
	defer net.Close()
	cl, _ := buildCluster(t, net, 1, 2)
	c := directory.NewClient(newDap(t, net, "hc", "client"), cl,
		directory.WithClientTimeout(150*time.Millisecond))

	e := directory.Entry{Name: "survivor-test", Type: "t", Addr: netsim.Addr{Host: "x", Port: 9}}
	if err := c.Register(ctx, e); err != nil {
		t.Fatal(err)
	}

	// Power off the preferred replica's machine; cached state is flushed
	// so the next lookup must go remote and fail over.
	net.Crash("dir-0-0")
	c.FlushCache()
	got, err := c.MustLookup(ctx, "survivor-test")
	if err != nil {
		t.Fatalf("lookup after replica crash: %v", err)
	}
	if got != e {
		t.Fatalf("lookup = %+v, want %+v", got, e)
	}
	if c.Stats().Failovers == 0 {
		t.Fatal("no failover counted")
	}
	// Mutations keep working too: the surviving replica acknowledges.
	if err := c.Register(ctx, directory.Entry{Name: "post-crash", Type: "t", Addr: netsim.Addr{Host: "y", Port: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MustLookup(ctx, "post-crash"); err != nil {
		t.Fatal(err)
	}
}

// TestFailureDrivenExpiryAndReincarnation wires a failure detector into a
// replica (failure.BindDirectory): a registered dapplet's crash expires
// its entry with no manual Remove, and its restarted incarnation's
// heartbeat re-registers it at the new address.
func TestFailureDrivenExpiryAndReincarnation(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.WithSeed(6))
	defer net.Close()

	svcD := newDap(t, net, "hs", "dir-0-0")
	svc := directory.Serve(svcD)
	det := failure.Attach(svcD, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2})
	failure.BindDirectory(det, svc)
	cl, err := directory.NewCluster([][]wire.InboxRef{{svc.Ref()}})
	if err != nil {
		t.Fatal(err)
	}
	c := directory.NewClient(newDap(t, net, "hc", "client"), cl)

	// The worker registers and watches the replica back (detection is
	// bidirectional, as in BFD).
	worker := newDap(t, net, "hw", "worker")
	wdet := failure.Attach(worker, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2})
	wdet.Watch(svcD.Name(), svcD.Addr())
	if err := c.Register(ctx, directory.Entry{Name: "worker", Type: "node", Addr: worker.Addr()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica watching worker", func() bool {
		_, ok := det.Status("worker")
		return ok
	})

	// Power off the worker's machine: the Down verdict must expire the
	// entry on the replica, and the pushed event must evict the client's
	// cached copy — no Remove anywhere.
	net.Crash("hw")
	waitFor(t, "entry expiry on replica", func() bool {
		_, _, ok := svc.Lookup("worker")
		return !ok
	})
	waitFor(t, "client cache eviction", func() bool {
		_, ok := c.Lookup(ctx, "worker")
		return !ok
	})

	// A restarted incarnation at a new address heartbeats the replica;
	// the Up verdict revives the entry there, type preserved.
	worker2 := newDap(t, net, "hw2", "worker")
	wdet2 := failure.Attach(worker2, failure.Config{
		Interval: 10 * time.Millisecond, Multiplier: 2, Incarnation: 1,
	})
	wdet2.Watch(svcD.Name(), svcD.Addr())
	waitFor(t, "reincarnated entry", func() bool {
		e, _, ok := svc.Lookup("worker")
		return ok && e.Addr == worker2.Addr() && e.Type == "node"
	})
	got, err := c.MustLookup(ctx, "worker")
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != worker2.Addr() {
		t.Fatalf("client resolved %v, want reincarnated %v", got.Addr, worker2.Addr())
	}
}

// TestMutationContextPropagation pins the fan-out cancellation satellite:
// a Register abandoned by its caller's cancellation must return promptly
// with the context error — not ride out the full per-replica timeout —
// and must leave no background threads retrying past the cancellation
// (fenced with runtime.NumGoroutine, meaningful under -race).
func TestMutationContextPropagation(t *testing.T) {
	net := netsim.New(netsim.WithSeed(7))
	defer net.Close()
	cl, _ := buildCluster(t, net, 1, 2)
	c := directory.NewClient(newDap(t, net, "hc", "client"), cl)
	// Both replicas dead: every fan-out leg is a straggler. The default
	// per-replica timeout is 2s; cancellation must beat it.
	net.Crash("dir-0-0")
	net.Crash("dir-0-1")

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- c.Register(ctx, directory.Entry{Name: "orphan", Type: "t", Addr: netsim.Addr{Host: "x", Port: 1}})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Register never returned")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled Register took %v (rode out the replica timeout?)", elapsed)
	}
	waitFor(t, "fan-out stragglers to exit", func() bool {
		return runtime.NumGoroutine() <= before+2
	})
}

// TestLookupExpiredContext checks the read path's context contract: an
// already-expired context resolves nothing and MustLookup surfaces
// context.DeadlineExceeded.
func TestLookupExpiredContext(t *testing.T) {
	net := netsim.New(netsim.WithSeed(8))
	defer net.Close()
	cl, _ := buildCluster(t, net, 1, 1)
	c := directory.NewClient(newDap(t, net, "hc", "client"), cl)
	if err := c.Register(context.Background(), directory.Entry{Name: "n", Type: "t", Addr: netsim.Addr{Host: "x", Port: 1}}); err != nil {
		t.Fatal(err)
	}
	c.FlushCache() // force the remote path
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := c.MustLookup(ctx, "n"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
