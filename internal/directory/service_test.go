package directory_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

const testRTO = 20 * time.Millisecond

// newWorld is a world whose dapplets run testRTO, closed when t ends.
func newWorld(t *testing.T, opts ...netsim.Option) *world.World {
	w := world.New(transport.Config{RTO: testRTO}, opts...)
	t.Cleanup(w.Close)
	return w
}

// buildCluster hosts shards x replicas directory service dapplets, with
// replica r of shard s on host "dir-s-r".
func buildCluster(t *testing.T, w *world.World, shards, replicas int) (*directory.Cluster, [][]*directory.Service) {
	t.Helper()
	refs := make([][]wire.InboxRef, shards)
	svcs := make([][]*directory.Service, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			d := w.Dapplet(fmt.Sprintf("dir-%d-%d", s, r), "t", fmt.Sprintf("dir-%d-%d", s, r))
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
	w := newWorld(t, netsim.WithSeed(1))
	cl, _ := buildCluster(t, w, 2, 2)
	cliD := w.Dapplet("hc", "t", "client")
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
	w := newWorld(t, netsim.WithSeed(1), netsim.WithTimeScale(1))
	cl, svcs := buildCluster(t, w, 1, 2)
	const slow = 40 * time.Millisecond
	w.Net.SetLinkDelay("hc", "dir-0-0", netsim.Constant(slow)) // the preferred replica answers late
	c := directory.NewClient(w.Dapplet("hc", "t", "client"), cl, directory.WithClientTimeout(100*time.Millisecond))

	e := directory.Entry{Name: "mani-cal", Type: "calendar", Addr: netsim.Addr{Host: "x", Port: 7}}
	if err := c.Register(ctx, e); err != nil { // acked first by dir-0-1
		t.Fatal(err)
	}
	waitFor(t, "the preferred replica to apply the registration", func() bool {
		_, ok := svcs[0][0].Lookup(e.Name)
		return ok
	})
	// Its ack is on the wire now, and lands whatever happens next; the
	// cut keeps the Remove from reaching it.
	w.Net.Partition([]string{"hc", "dir-0-1"}, []string{"dir-0-0"})
	if err := c.Remove(ctx, e.Name); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * slow) // the late ack lands
	if got, ok := c.Lookup(ctx, e.Name); ok {
		t.Fatalf("removed entry resolves to %+v: a late registration ack brought it back", got)
	}
}

// A write that loses last-writer-wins at the replica is still acked. The
// ack must leave the winner in the writer's cache, not the losing entry:
// nothing else would ever evict it. b's clock runs ahead of a's, and the
// slow link keeps a from hearing about b's write before it stamps its
// own, so a's later write carries the earlier stamp.
func TestLosingRegisterCachesWinner(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, netsim.WithSeed(9), netsim.WithTimeScale(1))
	cl, svcs := buildCluster(t, w, 1, 1)
	w.Net.SetLinkDelay("ha", "dir-0-0", netsim.Constant(50*time.Millisecond))
	a := directory.NewClient(w.Dapplet("ha", "t", "a"), cl)
	bD := w.Dapplet("hb", "t", "b")
	b := directory.NewClient(bD, cl)
	bD.Clock().ObserveRecv(1000)

	hb := directory.Entry{Name: "x", Type: "t", Addr: netsim.Addr{Host: "hb", Port: 2}}
	if err := b.Register(ctx, hb); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(ctx, directory.Entry{Name: "x", Type: "t", Addr: netsim.Addr{Host: "ha", Port: 1}}); err != nil {
		t.Fatal(err)
	}
	held, _ := svcs[0][0].Lookup("x")
	if held != hb {
		t.Fatalf("replica holds %+v, want b's entry %+v", held, hb)
	}
	got, ok := a.Lookup(ctx, "x")
	if !ok || got != held {
		t.Fatalf("client a resolves %s:%d, replica holds %s:%d", got.Addr.Host, got.Addr.Port, held.Addr.Host, held.Addr.Port)
	}
}

func TestClientCacheHitPath(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, netsim.WithSeed(2))
	cl, _ := buildCluster(t, w, 1, 1)
	cliD := w.Dapplet("hc", "t", "client")
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
// stamped cache entries through pushed watch events.
func TestStaleVersionEviction(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, netsim.WithSeed(3))
	cl, _ := buildCluster(t, w, 1, 1)
	a := directory.NewClient(w.Dapplet("ha", "t", "a"), cl)
	b := directory.NewClient(w.Dapplet("hb", "t", "b"), cl)

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
	w := newWorld(t, netsim.WithSeed(4))
	cl, svcs := buildCluster(t, w, 2, 2)
	a := directory.NewClient(w.Dapplet("ha", "t", "a"), cl)
	b := directory.NewClient(w.Dapplet("hb", "t", "b"), cl)

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
	w := newWorld(t, netsim.WithSeed(5))
	cl, _ := buildCluster(t, w, 1, 2)
	c := directory.NewClient(w.Dapplet("hc", "t", "client"), cl,
		directory.WithClientTimeout(150*time.Millisecond))

	e := directory.Entry{Name: "survivor-test", Type: "t", Addr: netsim.Addr{Host: "x", Port: 9}}
	if err := c.Register(ctx, e); err != nil {
		t.Fatal(err)
	}

	// Power off the preferred replica's machine; cached state is flushed
	// so the next lookup must go remote and fail over.
	w.Net.Crash("dir-0-0")
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
	w := newWorld(t, netsim.WithSeed(6))

	svcD := w.Dapplet("hs", "t", "dir-0-0")
	svc := directory.Serve(svcD)
	det := failure.Attach(svcD, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2})
	failure.BindDirectory(det, svc)
	cl, err := directory.NewCluster([][]wire.InboxRef{{svc.Ref()}})
	if err != nil {
		t.Fatal(err)
	}
	c := directory.NewClient(w.Dapplet("hc", "t", "client"), cl)

	// The worker registers and watches the replica back (detection is
	// bidirectional, as in BFD).
	worker := w.Dapplet("hw", "t", "worker")
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
	w.Net.Crash("hw")
	waitFor(t, "entry expiry on replica", func() bool {
		_, ok := svc.Lookup("worker")
		return !ok
	})
	waitFor(t, "client cache eviction", func() bool {
		_, ok := c.Lookup(ctx, "worker")
		return !ok
	})

	// A restarted incarnation at a new address heartbeats the replica;
	// the Up verdict revives the entry there, type preserved.
	worker2 := w.Dapplet("hw2", "t", "worker")
	wdet2 := failure.Attach(worker2, failure.Config{
		Interval: 10 * time.Millisecond, Multiplier: 2, Incarnation: 1,
	})
	wdet2.Watch(svcD.Name(), svcD.Addr())
	waitFor(t, "reincarnated entry", func() bool {
		e, ok := svc.Lookup("worker")
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
	w := newWorld(t, netsim.WithSeed(7))
	cl, _ := buildCluster(t, w, 1, 2)
	c := directory.NewClient(w.Dapplet("hc", "t", "client"), cl)
	// Both replicas dead: every fan-out leg is a straggler. The default
	// per-replica timeout is 2s; cancellation must beat it.
	w.Net.Crash("dir-0-0")
	w.Net.Crash("dir-0-1")

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
	w := newWorld(t, netsim.WithSeed(8))
	cl, _ := buildCluster(t, w, 1, 1)
	c := directory.NewClient(w.Dapplet("hc", "t", "client"), cl)
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
