package directory_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/wire"
	"repro/internal/world"
)

// buildGossipShard hosts one shard of n replicas with anti-entropy bound
// between them, replica r on host "dir-0-r".
func buildGossipShard(t *testing.T, w *world.World, n int, interval time.Duration) ([]*directory.Service, []*core.Dapplet) {
	t.Helper()
	svcs := make([]*directory.Service, n)
	daps := make([]*core.Dapplet, n)
	engs := make([]*gossip.Engine, n)
	refs := make([]wire.InboxRef, n)
	for r := 0; r < n; r++ {
		daps[r] = w.Dapplet(fmt.Sprintf("dir-0-%d", r), "t", fmt.Sprintf("dir-0-%d", r))
		svcs[r] = directory.Serve(daps[r])
		engs[r] = gossip.Attach(daps[r], gossip.Config{Interval: interval})
		refs[r] = gossip.Ref(daps[r].Addr())
	}
	for r := 0; r < n; r++ {
		engs[r].SetPeers(refs)
		directory.BindGossip(engs[r], svcs[r])
	}
	return svcs, daps
}

func converged(svcs []*directory.Service) bool {
	fp := svcs[0].Fingerprint()
	for _, s := range svcs[1:] {
		if s.Fingerprint() != fp {
			return false
		}
	}
	return true
}

// TestAntiEntropySpreadsLocalWrites exercises the pure digest/delta
// path: writes applied to one replica only (no client fan-out at all)
// must reach its shard sibling through periodic pulls, removals as
// tombstones — including the removal of a name the sibling never saw
// registered, which must not resurrect.
func TestAntiEntropySpreadsLocalWrites(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(31))
	svcs, _ := buildGossipShard(t, w, 2, 10*time.Millisecond)
	a, b := svcs[0], svcs[1]

	for i := 0; i < 8; i++ {
		a.Register(directory.Entry{
			Name: fmt.Sprintf("m%d", i), Type: "t",
			Addr: netsim.Addr{Host: "mh", Port: uint16(i + 1)},
		})
	}
	// m0 lives and dies entirely inside a; b must end with a tombstone,
	// not a live entry.
	a.Remove("m0")

	waitFor(t, "anti-entropy convergence", func() bool { return converged(svcs) })
	for i := 1; i < 8; i++ {
		name := fmt.Sprintf("m%d", i)
		e, ok := b.Lookup(name)
		if !ok {
			t.Fatalf("replica b missing %s after convergence", name)
		}
		if e.Addr.Port != uint16(i+1) {
			t.Fatalf("replica b has %s at %v", name, e.Addr)
		}
	}
	if _, ok := b.Lookup("m0"); ok {
		t.Fatal("replica b resurrected a removed name")
	}
	va, vb := a.VersionVector(), b.VersionVector()
	if len(vb) == 0 {
		t.Fatal("replica b has an empty version vector after convergence")
	}
	for w, s := range va {
		if vb[w] < s {
			t.Fatalf("replica b's vector behind for writer %q: %d < %d", w, vb[w], s)
		}
	}
}

// TestAntiEntropyRestartedReplicaConverges is the integration path: a
// replica crashes, misses a batch of client mutations (registers and
// removes), restarts, and converges without the client replaying
// anything.
func TestAntiEntropyRestartedReplicaConverges(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(32))
	svcs, _ := buildGossipShard(t, w, 2, 10*time.Millisecond)
	a, b := svcs[0], svcs[1]

	refs := [][]wire.InboxRef{{a.Ref(), b.Ref()}}
	cl, err := directory.NewCluster(refs)
	if err != nil {
		t.Fatal(err)
	}
	cliD := w.Dapplet("hc", "t", "cli")
	cli := directory.NewClient(cliD, cl)
	ctx := context.Background()

	for i := 0; i < 4; i++ {
		if err := cli.Register(ctx, directory.Entry{
			Name: fmt.Sprintf("pre%d", i), Type: "t",
			Addr: netsim.Addr{Host: "mh", Port: uint16(i + 1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "pre-crash fan-out", func() bool { return b.Len() == 4 })

	w.Net.Crash("dir-0-1")
	for i := 0; i < 12; i++ {
		if err := cli.Register(ctx, directory.Entry{
			Name: fmt.Sprintf("mid%d", i), Type: "t",
			Addr: netsim.Addr{Host: "mh", Port: uint16(100 + i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Remove(ctx, "pre0"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Remove(ctx, "pre1"); err != nil {
		t.Fatal(err)
	}

	w.Net.Restart("dir-0-1")
	waitFor(t, "post-restart convergence", func() bool { return converged(svcs) })
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("mid%d", i)
		if _, ok := b.Lookup(name); !ok {
			t.Fatalf("restarted replica missing %s", name)
		}
	}
	for _, name := range []string{"pre0", "pre1"} {
		if _, ok := b.Lookup(name); ok {
			t.Fatalf("restarted replica still resolves removed %s", name)
		}
	}
}

// TestLWWConvergesConflictingWrites drives two clients at the same name
// while each replica is isolated in turn, so the replicas hold
// different records for it — then heals and requires both to settle on
// the same winner.
func TestLWWConvergesConflictingWrites(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(33))
	svcs, _ := buildGossipShard(t, w, 2, 10*time.Millisecond)
	a, b := svcs[0], svcs[1]

	refs := [][]wire.InboxRef{{a.Ref(), b.Ref()}}
	cl, err := directory.NewCluster(refs)
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := directory.NewCluster(refs)
	if err != nil {
		t.Fatal(err)
	}
	cli1 := directory.NewClient(w.Dapplet("hc1", "t", "cli1"), cl)
	cli2 := directory.NewClient(w.Dapplet("hc2", "t", "cli2"), cl2)
	ctx := context.Background()

	w.Net.Partition([]string{"dir-0-1"})
	if err := cli1.Register(ctx, directory.Entry{Name: "x", Type: "t", Addr: netsim.Addr{Host: "h1", Port: 1}}); err != nil {
		t.Fatal(err)
	}
	w.Net.Heal()
	w.Net.Partition([]string{"dir-0-0"})
	if err := cli2.Register(ctx, directory.Entry{Name: "x", Type: "t", Addr: netsim.Addr{Host: "h2", Port: 2}}); err != nil {
		t.Fatal(err)
	}
	w.Net.Heal()

	waitFor(t, "LWW convergence", func() bool { return converged(svcs) })
	ea, oka := a.Lookup("x")
	eb, okb := b.Lookup("x")
	if !oka || !okb {
		t.Fatalf("lookup after convergence: a=%v b=%v", oka, okb)
	}
	if ea != eb {
		t.Fatalf("replicas disagree after convergence: a=%+v b=%+v", ea, eb)
	}
}

// TestClientRotatesBackAfterHomeRecovers: a client that failed over to a
// backup replica must return to its home (preferred) replica once the
// home answers again, restoring read locality after transient outages.
// The rotation keeps the cache: a name cached from the backup is still a
// hit once the client is home, since stamps order records from any
// replica.
func TestClientRotatesBackAfterHomeRecovers(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(34))
	a := w.Dapplet("dir-0-0", "t", "dir-0-0")
	b := w.Dapplet("dir-0-1", "t", "dir-0-1")
	sa := directory.Serve(a)
	sb := directory.Serve(b)
	cl, err := directory.NewCluster([][]wire.InboxRef{{sa.Ref(), sb.Ref()}})
	if err != nil {
		t.Fatal(err)
	}
	cliD := w.Dapplet("hc", "t", "cli")
	cli := directory.NewClient(cliD, cl, directory.WithRotateBack(100*time.Millisecond),
		directory.WithClientTimeout(300*time.Millisecond))
	ctx := context.Background()

	// Establish the home subscription, then kill the home replica and
	// force a failover with a remote lookup.
	cli.Lookup(ctx, "warm-0")
	w.Net.Crash("dir-0-0")
	waitFor(t, "failover to backup", func() bool {
		cli.Lookup(ctx, fmt.Sprintf("probe-%d", time.Now().UnixNano()))
		return cli.Stats().Failovers >= 1
	})

	// Cache a name while the backup is preferred.
	kept := directory.Entry{Name: "kept", Type: "t", Addr: netsim.Addr{Host: "k", Port: 1}}
	if err := cli.Register(ctx, kept); err != nil {
		t.Fatal(err)
	}

	w.Net.Restart("dir-0-0")
	// Each miss probes remotely; once the rotate-back window elapses the
	// client pings home and flips back.
	waitFor(t, "rotate back home", func() bool {
		cli.Lookup(ctx, fmt.Sprintf("again-%d", time.Now().UnixNano()))
		return cli.Stats().Rotations >= 1
	})
	hits := cli.Stats().Hits
	if got, ok := cli.Lookup(ctx, kept.Name); !ok || got != kept {
		t.Fatalf("lookup after rotating back = %+v %v, want %+v", got, ok, kept)
	}
	if cli.Stats().Hits != hits+1 {
		t.Fatal("a name cached on the backup went remote after rotating back")
	}
}
