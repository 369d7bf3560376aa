package netsim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestWithShardsCounts(t *testing.T) {
	if got := New(WithShards(4)).Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	if got := New().Shards(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Shards() = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(WithShards(-3)).Shards(); got < 1 {
		t.Fatalf("Shards() = %d for negative option, want >= 1", got)
	}
}

// TestConcurrentSendStatsBalance hammers the network from many goroutines
// (run under -race) across lossy, duplicating links and checks that the
// atomic counters balance exactly: every datagram submitted is accounted
// for as delivered, lost to the link, cut by a partition, or dropped at a
// queue, with duplication adding extra delivered copies.
func TestConcurrentSendStatsBalance(t *testing.T) {
	for _, shards := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			n := New(WithSeed(1234), WithShards(shards))
			defer n.Close()
			const senders, per = 16, 500
			dsts := make([]*Endpoint, senders)
			srcs := make([]*Endpoint, senders)
			for i := 0; i < senders; i++ {
				var err error
				if srcs[i], err = n.Host(fmt.Sprintf("src%d", i)).Bind(1); err != nil {
					t.Fatal(err)
				}
				if dsts[i], err = n.Host(fmt.Sprintf("dst%d", i)).BindAnyQueue(4096); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < senders; i++ {
				// Sender i talks to destination i+1 (cross-traffic below).
				n.SetLink(fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", (i+1)%senders),
					LinkParams{Loss: 0.3, Dup: 0.2})
			}
			var wg sync.WaitGroup
			for i := 0; i < senders; i++ {
				wg.Add(1)
				go func(src *Endpoint, to Addr) {
					defer wg.Done()
					for k := 0; k < per; k++ {
						// Cross-traffic to all destinations exercises
						// cross-shard routing, not just one pair.
						if err := src.Send(to, []byte("balance")); err != nil {
							t.Error(err)
							return
						}
					}
				}(srcs[i], dsts[(i+1)%senders].Addr())
			}
			wg.Wait()
			// timeScale is 0, so every Send has fully resolved by now:
			// nothing is in flight and no reorder slot is held (Reorder=0).
			st := n.Stats()
			if st.Sent != senders*per {
				t.Fatalf("Sent = %d, want %d", st.Sent, senders*per)
			}
			got := st.Delivered + st.LostLink + st.LostCut + st.LostQueue + st.LostNoListener
			want := st.Sent + st.Duplicated
			if got != want {
				t.Fatalf("counters do not balance: Delivered(%d)+LostLink(%d)+LostCut(%d)+LostQueue(%d)+LostNoListener(%d) = %d, want Sent(%d)+Duplicated(%d) = %d",
					st.Delivered, st.LostLink, st.LostCut, st.LostQueue, st.LostNoListener, got, st.Sent, st.Duplicated, want)
			}
			if st.LostLink == 0 || st.Duplicated == 0 {
				t.Fatalf("faults never fired (LostLink=%d Duplicated=%d); test is vacuous", st.LostLink, st.Duplicated)
			}
		})
	}
}

// runSeededSequence drives one deterministic single-goroutine run over a
// faulty link and returns the exact sequence of delivered payloads.
func runSeededSequence(t *testing.T, seed int64, shards int) []string {
	t.Helper()
	n := New(WithSeed(seed), WithShards(shards))
	defer n.Close()
	src, err := n.Host("alpha").Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.Host("beta").BindAnyQueue(4096)
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("alpha", "beta", LinkParams{Loss: 0.2, Dup: 0.2, Reorder: 0.2})
	for i := 0; i < 400; i++ {
		if err := src.Send(dst.Addr(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var seq []string
	for {
		dg, err := dst.RecvTimeout(50 * time.Millisecond)
		if err != nil {
			break
		}
		seq = append(seq, string(dg.Payload))
	}
	return seq
}

// TestSeededRunsAreIdentical checks the determinism contract: two runs
// with the same seed and WithShards(1) (and, single-threaded, any fixed
// shard count) deliver the identical datagram sequence through loss,
// duplication and reordering.
func TestSeededRunsAreIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a := runSeededSequence(t, 77, shards)
			b := runSeededSequence(t, 77, shards)
			if len(a) != len(b) {
				t.Fatalf("runs delivered %d vs %d datagrams", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("sequences diverge at %d: %q vs %q", i, a[i], b[i])
				}
			}
			if len(a) == 400 {
				t.Fatal("no datagram was ever dropped; faulty-link determinism untested")
			}
		})
	}
}

// TestSeedsDiffer guards against the degenerate "deterministic because
// the rng is ignored" failure mode: different seeds must produce
// different delivery sequences.
func TestSeedsDiffer(t *testing.T) {
	a := runSeededSequence(t, 1, 1)
	b := runSeededSequence(t, 2, 1)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical sequences")
		}
	}
}

// TestTimedDeliveryHeapOrder checks the per-shard timer heap delivers
// time-scaled datagrams and that closing the network cancels what is
// still queued.
func TestTimedDeliveryHeapOrder(t *testing.T) {
	n := New(WithTimeScale(1.0), WithDefaultDelay(Constant(10*time.Millisecond)), WithShards(2))
	a, _ := n.Host("x").Bind(1)
	b, _ := n.Host("y").Bind(1)
	for i := 0; i < 5; i++ {
		if err := a.Send(b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		dg, err := b.RecvTimeout(time.Second)
		if err != nil {
			t.Fatalf("timed delivery %d: %v", i, err)
		}
		if dg.Payload[0] != byte(i) {
			t.Fatalf("timed delivery order: got %d at position %d", dg.Payload[0], i)
		}
	}
	// Queue one more and close before it comes due: it must be cancelled.
	// A long delay keeps this robust on a loaded machine — with the 10ms
	// delay a GC pause could let it deliver before Close.
	n.SetLinkDelay("x", "y", Constant(10*time.Second))
	if err := a.Send(b.Addr(), []byte("late")); err != nil {
		t.Fatal(err)
	}
	n.Close()
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("after close err = %v, want ErrClosed (timed delivery must be cancelled)", err)
	}
}

// TestCrossShardLinkConfig checks SetLink/SetLoss/Partition take effect
// regardless of which shards the two hosts land on.
func TestCrossShardLinkConfig(t *testing.T) {
	n := New(WithSeed(5), WithShards(8))
	defer n.Close()
	// Pick host names that land on different shards.
	var names []string
	for i := 0; len(names) < 2 && i < 64; i++ {
		name := fmt.Sprintf("h%d", i)
		if len(names) == 0 || n.shardFor(name) != n.shardFor(names[0]) {
			names = append(names, name)
		}
	}
	if len(names) < 2 {
		t.Skip("could not find two hosts on distinct shards")
	}
	a, _ := n.Host(names[0]).Bind(1)
	b, _ := n.Host(names[1]).Bind(1)
	n.SetLoss(names[0], names[1], 1.0)
	// Loss must apply in both directions even though each direction is
	// routed on a different shard.
	if err := a.Send(b.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.Addr(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.LostLink != 2 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 2 lost / 0 delivered", st)
	}
	n.SetLoss(names[0], names[1], 0)
	n.Partition([]string{names[0]}, []string{names[1]})
	if err := a.Send(b.Addr(), []byte("cut")); err != nil {
		t.Fatal(err)
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

// BenchmarkNetsimParallelSendShards compares shard counts directly inside
// the package; the top-level BenchmarkNetsimParallelSend exercises the
// default configuration through the public API.
func BenchmarkNetsimParallelSendShards(b *testing.B) {
	for _, shards := range []int{1, 0} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = "shards=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			benchParallelSend(b, shards)
		})
	}
}

func benchParallelSend(b *testing.B, shards int) {
	const pairs = 64
	n := New(WithSeed(1), WithShards(shards))
	defer n.Close()
	srcs := make([]*Endpoint, pairs)
	dsts := make([]*Endpoint, pairs)
	for i := 0; i < pairs; i++ {
		srcs[i], _ = n.Host(fmt.Sprintf("src%d", i)).Bind(1)
		dsts[i], _ = n.Host(fmt.Sprintf("dst%d", i)).Bind(1)
		go func(e *Endpoint) {
			for {
				if _, err := e.Recv(); err != nil {
					return
				}
			}
		}(dsts[i])
	}
	payload := []byte("payload-payload-payload-payload")
	var next int64
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		i := int(next) % pairs
		next++
		mu.Unlock()
		src, to := srcs[i], dsts[i].Addr()
		for pb.Next() {
			if err := src.Send(to, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
