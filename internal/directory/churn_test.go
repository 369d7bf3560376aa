package directory_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/wire"

	"repro/internal/netsim"
)

// TestClientCacheUnderChurn is the swarm-harness satellite for the
// directory client: registrants churn (crash, expire through failure
// verdicts) while the client keeps resolving, and the cache must stay
// both useful and honest — a high hit rate on the stable population,
// and one eviction per expired entry as the replicas' Down verdicts
// stream in as invalidation events across multiple peers.
func TestClientCacheUnderChurn(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, netsim.WithSeed(11))

	attach := func(d *core.Dapplet) *failure.Detector {
		return failure.Attach(d, failure.Config{Interval: 20 * time.Millisecond, Multiplier: 2})
	}

	// Two single-replica shards, each replica expiring its registrants
	// through its own detector.
	const shards = 2
	replicas := make([]*directory.Service, shards)
	repDaps := make([]*core.Dapplet, shards)
	refs := make([][]wire.InboxRef, shards)
	for s := 0; s < shards; s++ {
		d := w.Dapplet(fmt.Sprintf("dirh-%d", s), "t", fmt.Sprintf("dir-%d", s))
		rdet := attach(d)
		svc := directory.Serve(d)
		failure.BindDirectory(rdet, svc)
		replicas[s] = svc
		repDaps[s] = d
		refs[s] = []wire.InboxRef{svc.Ref()}
	}
	cl, err := directory.NewCluster(refs)
	if err != nil {
		t.Fatal(err)
	}

	cliD := w.Dapplet("hc", "t", "client")
	c := directory.NewClient(cliD, cl)

	// A churning population of real dapplets: each watches its owning
	// shard's replica back (detection is bidirectional) so the replica's
	// detector holds a live verdict on it.
	const n = 12
	members := make([]*core.Dapplet, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("member-%02d", i)
		members[i] = w.Dapplet(fmt.Sprintf("mh-%d", i), "t", names[i])
		sh := cl.ShardOf(names[i])
		attach(members[i]).Watch(repDaps[sh].Name(), repDaps[sh].Addr())
		if err := c.Register(ctx, directory.Entry{
			Name: names[i], Type: "member", Addr: members[i].Addr(),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the cache, then hammer it: after the first miss per name,
	// every further lookup of a stable member must be a hit.
	for round := 0; round < 6; round++ {
		for _, name := range names {
			if _, err := c.MustLookup(ctx, name); err != nil {
				t.Fatalf("lookup %s: %v", name, err)
			}
		}
	}

	// Crash a third of the population across both shards and wait for
	// the failure-driven expiry to reach the client: the entries stop
	// resolving with no Remove ever issued.
	perShard := make(map[int]int)
	var crashed []int
	for i, name := range names {
		if sh := cl.ShardOf(name); perShard[sh] < 2 {
			perShard[sh]++
			crashed = append(crashed, i)
		}
	}
	for _, i := range crashed {
		members[i].Stop()
	}
	for _, i := range crashed {
		name := names[i]
		waitFor(t, "expiry of "+name, func() bool {
			_, ok := c.Lookup(ctx, name)
			return !ok
		})
	}

	st := c.Stats()
	if st.Evictions < uint64(len(crashed)) {
		t.Fatalf("evictions = %d, want >= %d (one per expired entry)", st.Evictions, len(crashed))
	}
	if hr := st.HitRate(); hr < 0.6 {
		t.Fatalf("hit rate %.2f under churn, want >= 0.6 (stats: %+v)", hr, st)
	}
	// Survivors must still resolve from cache after the churn.
	dead := make(map[int]bool, len(crashed))
	for _, i := range crashed {
		dead[i] = true
	}
	before := c.Stats().Hits
	for i, name := range names {
		if dead[i] {
			continue
		}
		if _, err := c.MustLookup(ctx, name); err != nil {
			t.Fatalf("survivor %s unresolvable after churn: %v", name, err)
		}
	}
	if gained := c.Stats().Hits - before; gained != uint64(n-len(crashed)) {
		t.Fatalf("survivor sweep hit cache %d times, want %d", gained, n-len(crashed))
	}
}
