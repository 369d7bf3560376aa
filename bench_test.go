// Package repro holds the top-level benchmark harness: one benchmark per
// experiment in DESIGN.md (F1-F3 reproduce the paper's figures, T1 the
// traditional-vs-session comparison, E1-E7 characterize each mechanism the
// paper specifies). cmd/wwbench prints the corresponding tables.
package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/lclock"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/state"
	"repro/internal/syncprim"
	"repro/internal/tokens"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fastRTO keeps retransmission timers out of fault-free benchmarks.
const fastRTO = 30 * time.Millisecond

// BenchmarkNetsimParallelSend measures raw datagram throughput of the
// sharded delivery engine under concurrent senders on disjoint host
// pairs (experiment E0 in DESIGN.md). Run with -cpu 1,4,8 to observe
// scaling; compare against WithShards(1) (the single-lock-equivalent
// configuration) via BenchmarkNetsimParallelSendShards in
// internal/netsim.
func BenchmarkNetsimParallelSend(b *testing.B) {
	const pairs = 64
	net := netsim.New(netsim.WithSeed(1))
	defer net.Close()
	srcs := make([]*netsim.Endpoint, pairs)
	dsts := make([]*netsim.Endpoint, pairs)
	for i := 0; i < pairs; i++ {
		var err error
		if srcs[i], err = net.Host(fmt.Sprintf("src%d", i)).Bind(1); err != nil {
			b.Fatal(err)
		}
		if dsts[i], err = net.Host(fmt.Sprintf("dst%d", i)).Bind(1); err != nil {
			b.Fatal(err)
		}
		go func(e *netsim.Endpoint) {
			for {
				if _, err := e.Recv(); err != nil {
					return
				}
			}
		}(dsts[i])
	}
	payload := []byte("payload-payload-payload-payload")
	b.SetBytes(int64(len(payload)))
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)-1) % pairs
		src, to := srcs[i], dsts[i].Addr()
		for pb.Next() {
			if err := src.Send(to, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func benchDapplet(b *testing.B, net *netsim.Network, host, name string) *core.Dapplet {
	b.Helper()
	ep, err := net.Host(host).BindAny()
	if err != nil {
		b.Fatal(err)
	}
	d := core.NewDapplet(name, "bench", transport.NewSimConn(ep),
		core.WithTransportConfig(transport.Config{RTO: fastRTO, Window: 256, RecvBuf: 4096}))
	b.Cleanup(d.Stop)
	return d
}

// BenchmarkFig3FanOut measures one outbox bound to N inboxes (Figure 3):
// a Send copies the message along every channel.
func BenchmarkFig3FanOut(b *testing.B) {
	for _, fan := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("fan=%d", fan), func(b *testing.B) {
			net := netsim.New(netsim.WithSeed(1))
			defer net.Close()
			src := benchDapplet(b, net, "src", "src")
			out := src.Outbox("out")
			sinks := make([]*core.Inbox, fan)
			for i := 0; i < fan; i++ {
				d := benchDapplet(b, net, fmt.Sprintf("dst%d", i), fmt.Sprintf("dst%d", i))
				sinks[i] = d.Inbox("in")
				out.Add(sinks[i].Ref())
			}
			msg := &wire.Text{S: "payload-payload-payload-payload"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := out.Send(msg); err != nil {
					b.Fatal(err)
				}
				for _, in := range sinks {
					if _, err := in.Receive(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(fan), "copies/send")
		})
	}
}

// BenchmarkFig3FanIn measures N outboxes bound to one inbox (Figure 3).
func BenchmarkFig3FanIn(b *testing.B) {
	for _, fan := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("fan=%d", fan), func(b *testing.B) {
			net := netsim.New(netsim.WithSeed(1))
			defer net.Close()
			dst := benchDapplet(b, net, "dst", "dst")
			in := dst.Inbox("in")
			outs := make([]*core.Outbox, fan)
			for i := 0; i < fan; i++ {
				d := benchDapplet(b, net, fmt.Sprintf("src%d", i), fmt.Sprintf("src%d", i))
				outs[i] = d.Outbox("out")
				outs[i].Add(in.Ref())
			}
			msg := &wire.Text{S: "payload"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, out := range outs {
					if err := out.Send(msg); err != nil {
						b.Fatal(err)
					}
				}
				for k := 0; k < fan; k++ {
					if _, err := in.Receive(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig2SessionSetup measures initiator-driven session setup and
// teardown (Figure 2) as the participant count grows.
func BenchmarkFig2SessionSetup(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := netsim.New(netsim.WithSeed(1))
			defer net.Close()
			dir := benchDirectory(b, net, n)
			iniD := benchDapplet(b, net, "hq", "director")
			ini := session.NewInitiator(iniD, dir)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := session.Spec{ID: fmt.Sprintf("s%d", i)}
				for j := 0; j < n; j++ {
					spec.Participants = append(spec.Participants,
						session.Participant{Name: fmt.Sprintf("p%d", j), Role: "member"})
				}
				h, err := ini.Initiate(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Terminate(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchDirectory(b *testing.B, net *netsim.Network, n int) *directory.Directory {
	b.Helper()
	dir := directory.New()
	for j := 0; j < n; j++ {
		name := fmt.Sprintf("p%d", j)
		d := benchDapplet(b, net, fmt.Sprintf("h%d", j), name)
		session.Attach(d, session.Policy{})
		dir.Register(context.Background(), directory.Entry{Name: name, Type: "bench", Addr: d.Addr()})
	}
	return dir
}

// BenchmarkFig1CalendarThreeSites runs the full Figure 1 scenario per
// iteration: 9 calendar + 3 secretary dapplets across three WAN sites.
func BenchmarkFig1CalendarThreeSites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
			Sites: 3, MembersPerSite: 3, Hierarchical: true,
			Slots: 112, BusyProb: 0.6, CommonSlot: 77, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := w.Scheduler.Schedule(context.Background(), 0, 112, 28); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		v := w.Net.MaxVirtual()
		b.ReportMetric(float64(v.Milliseconds()), "vlat-ms")
		w.Close()
		b.StartTimer()
	}
}

// BenchmarkT1TraditionalVsSession compares the paper's two negotiation
// styles over identical calendars.
func BenchmarkT1TraditionalVsSession(b *testing.B) {
	for _, members := range []int{4, 12, 24} {
		for _, mode := range []string{"session", "traditional"} {
			b.Run(fmt.Sprintf("%s/members=%d", mode, members), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
						Sites: members, MembersPerSite: 1, Hierarchical: false,
						Slots: 64, BusyProb: 0.4, CommonSlot: 50, Seed: int64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if mode == "session" {
						_, err = w.Scheduler.Schedule(context.Background(), 0, 64, 64)
					} else {
						_, err = w.Traditional.Schedule(context.Background(), 0, 64, 64)
					}
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					b.ReportMetric(float64(w.Net.MaxVirtual().Milliseconds()), "vlat-ms")
					w.Close()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkE1ReliableLayer measures the ordered-delivery layer's
// throughput and retransmission overhead across loss rates.
func BenchmarkE1ReliableLayer(b *testing.B) {
	for _, loss := range []float64{0, 0.05, 0.2} {
		b.Run(fmt.Sprintf("loss=%.2f", loss), func(b *testing.B) {
			net := netsim.New(netsim.WithSeed(3))
			defer net.Close()
			net.SetLink("a", "b", netsim.LinkParams{Loss: loss})
			epA, _ := net.Host("a").Bind(1)
			epB, _ := net.Host("b").Bind(1)
			cfg := transport.Config{Window: 64}
			ra := transport.NewReliable(transport.NewSimConn(epA), cfg)
			rb := transport.NewReliable(transport.NewSimConn(epB), cfg)
			defer ra.Close()
			defer rb.Close()
			payload := make([]byte, 256)
			b.SetBytes(256)
			b.ResetTimer()
			done := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if _, _, err := rb.Recv(); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < b.N; i++ {
				if err := ra.Send(rb.LocalAddr(), payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			st := ra.Stats()
			if b.N > 0 {
				b.ReportMetric(float64(st.Retransmits)/float64(b.N), "retx/msg")
			}
		})
	}
}

// BenchmarkE2Tokens measures token grant/release round trips.
func BenchmarkE2Tokens(b *testing.B) {
	net := netsim.New(netsim.WithSeed(4))
	defer net.Close()
	hub := benchDapplet(b, net, "hub", "hub")
	alloc := tokens.Serve(hub, tokens.Bag{"r": 4})
	mgr := tokens.NewManager(benchDapplet(b, net, "c", "client"), alloc.Ref())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Request(tokens.Bag{"r": 1}); err != nil {
			b.Fatal(err)
		}
		if err := mgr.Release(tokens.Bag{"r": 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2DeadlockDetect measures the latency from closing a wait
// cycle to the deadlock exception.
func BenchmarkE2DeadlockDetect(b *testing.B) {
	net := netsim.New(netsim.WithSeed(5))
	defer net.Close()
	hub := benchDapplet(b, net, "hub", "hub")
	alloc := tokens.Serve(hub, tokens.Bag{"f1": 1, "f2": 1})
	ma := tokens.NewManager(benchDapplet(b, net, "a", "a"), alloc.Ref())
	mb := tokens.NewManager(benchDapplet(b, net, "b", "b"), alloc.Ref())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ma.Request(tokens.Bag{"f1": 1}); err != nil {
			b.Fatal(err)
		}
		if err := mb.Request(tokens.Bag{"f2": 1}); err != nil {
			b.Fatal(err)
		}
		errA := make(chan error, 1)
		go func() { errA <- ma.Request(tokens.Bag{"f2": 1}) }()
		errB := mb.Request(tokens.Bag{"f1": 1})
		errA2 := <-errA
		if !errors.Is(errA2, tokens.ErrDeadlock) && !errors.Is(errB, tokens.ErrDeadlock) {
			b.Fatalf("no deadlock raised: %v / %v", errA2, errB)
		}
		b.StopTimer()
		_ = ma.ReleaseAll()
		_ = mb.ReleaseAll()
		// Wait for the releases to settle so the next round starts clean.
		for alloc.Free().Count() != 2 {
			time.Sleep(100 * time.Microsecond)
		}
		b.StartTimer()
	}
}

// BenchmarkE3Clocks measures logical clock operations: the per-message
// stamping cost the layer adds.
func BenchmarkE3Clocks(b *testing.B) {
	b.Run("tick", func(b *testing.B) {
		c := lclock.New("p")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Tick()
		}
	})
	b.Run("send-recv-pair", func(b *testing.B) {
		s, r := lclock.New("s"), lclock.New("r")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ObserveRecv(s.StampSend())
		}
	})
}

// BenchmarkE4Snapshot measures both checkpointing algorithms over a
// 4-node ring with live traffic.
func BenchmarkE4Snapshot(b *testing.B) {
	build := func(b *testing.B) (*netsim.Network, *snapshot.Coordinator) {
		net := netsim.New(netsim.WithSeed(6))
		members := make([]snapshot.Member, 0, 4)
		services := make([]*snapshot.Service, 0, 4)
		for i := 0; i < 4; i++ {
			d := benchDapplet(b, net, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i))
			services = append(services, snapshot.Attach(d, func() any { return i }))
			members = append(members, snapshot.Member{Name: d.Name(), Addr: d.Addr()})
		}
		for i, svc := range services {
			peers := make([]snapshot.Member, 0, 3)
			for j, m := range members {
				if j != i {
					peers = append(peers, m)
				}
			}
			svc.SetPeers(peers)
		}
		coordD := benchDapplet(b, net, "coord", "coord")
		coord := snapshot.NewCoordinator(coordD, members)
		coord.SetSettle(time.Millisecond)
		return net, coord
	}
	b.Run("marker", func(b *testing.B) {
		net, coord := build(b)
		defer net.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := coord.SnapshotMarker(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if err := g.CheckConsistent(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clock", func(b *testing.B) {
		net, coord := build(b)
		defer net.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := coord.SnapshotClock(context.Background(), 1000)
			if err != nil {
				b.Fatal(err)
			}
			if err := g.CheckConsistent(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5RPC measures synchronous and asynchronous RPC over inboxes.
func BenchmarkE5RPC(b *testing.B) {
	net := netsim.New(netsim.WithSeed(7))
	defer net.Close()
	server := benchDapplet(b, net, "s", "server")
	client := benchDapplet(b, net, "c", "client")
	var n int
	ref := rpc.Serve(server, "counter", rpc.Object{
		"add": func(raw json.RawMessage) (any, error) { n++; return n, nil },
	})
	cli := rpc.NewClient(client)
	b.Run("sync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := cli.Call(context.Background(), ref, "add", nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("async", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := cli.Cast(ref, "add", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6SyncPrim measures the distributed barrier as parties grow,
// plus the local constructs.
func BenchmarkE6SyncPrim(b *testing.B) {
	for _, parties := range []int{2, 8} {
		b.Run(fmt.Sprintf("dist-barrier/parties=%d", parties), func(b *testing.B) {
			net := netsim.New(netsim.WithSeed(8))
			defer net.Close()
			svc := syncprim.ServeBarriers(benchDapplet(b, net, "hub", "coord"))
			clients := make([]*syncprim.Client, parties)
			for i := range clients {
				clients[i] = syncprim.NewClient(benchDapplet(b, net, fmt.Sprintf("h%d", i), fmt.Sprintf("p%d", i)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				errs := make(chan error, parties)
				for _, c := range clients {
					go func(c *syncprim.Client) {
						_, err := c.BarrierAwait(svc.Ref(), "bench", parties)
						errs <- err
					}(c)
				}
				for k := 0; k < parties; k++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	b.Run("local-barrier/parties=4", func(b *testing.B) {
		bar := syncprim.NewBarrier(4)
		b.ResetTimer()
		done := make(chan struct{})
		for w := 0; w < 3; w++ {
			go func() {
				for {
					select {
					case <-done:
						return
					default:
						bar.Await()
					}
				}
			}()
		}
		for i := 0; i < b.N; i++ {
			bar.Await()
		}
		close(done)
		// Release stragglers.
		for w := 0; w < 3; w++ {
			go bar.Await()
		}
	})
	b.Run("local-semaphore", func(b *testing.B) {
		s := syncprim.NewSemaphore(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Acquire(1); err != nil {
				b.Fatal(err)
			}
			s.Release(1)
		}
	})
}

// BenchmarkE9FailureDetection measures crash-detection latency of the
// heartbeat failure detector (experiment E9 in DESIGN.md) across
// heartbeat intervals: each iteration crashes the watched peer's host,
// times the watcher's Down verdict, then restarts the host and waits for
// the Up verdict so the next iteration starts clean. Expected latency is
// ~2*Multiplier intervals (Suspect at one detection time, Down at two).
func BenchmarkE9FailureDetection(b *testing.B) {
	for _, interval := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		b.Run(fmt.Sprintf("interval=%s", interval), func(b *testing.B) {
			net := netsim.New(netsim.WithSeed(9))
			defer net.Close()
			watcher := benchDapplet(b, net, "hw", "watcher")
			peer := benchDapplet(b, net, "hp", "peer")
			cfg := failure.Config{Interval: interval, Multiplier: 2}
			dw := failure.Attach(watcher, cfg)
			dp := failure.Attach(peer, cfg)
			events := make(chan failure.Event, 16)
			dw.OnEvent(func(ev failure.Event) {
				if ev.Peer == "peer" && (ev.State == failure.Down || ev.State == failure.Up) {
					events <- ev
				}
			})
			dw.Watch("peer", peer.Addr())
			dp.Watch("watcher", watcher.Addr())
			await := func(want failure.State) {
				for ev := range events {
					if ev.State == want {
						return
					}
				}
			}
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				net.Crash("hp")
				await(failure.Down)
				total += time.Since(start)
				b.StopTimer()
				net.Restart("hp")
				await(failure.Up)
				b.StartTimer()
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "detect-ms")
			}
		})
	}
}

// BenchmarkE9CheckpointRestoreRecovery measures the recovery half of E9:
// the time from a crashed participant to a fully repaired session —
// restart on the same host, state restored from the durable snapshot
// checkpoint, membership restored from the surviving store, and every
// survivor relinked to the new incarnation.
func BenchmarkE9CheckpointRestoreRecovery(b *testing.B) {
	net := netsim.New(netsim.WithSeed(10))
	defer net.Close()
	dir := directory.New()

	type nodeState struct {
		mu sync.Mutex
		v  int
	}
	states := make(map[string]*nodeState)
	var mu sync.Mutex
	services := make(map[string]*session.Service)
	reg := core.NewRegistry()
	reg.Register("node", core.Factory(func() core.Behavior {
		return core.BehaviorFunc(func(d *core.Dapplet) error {
			mu.Lock()
			st := states[d.Name()]
			if st == nil {
				st = &nodeState{}
				states[d.Name()] = st
			}
			mu.Unlock()
			// Restore application state from the last durable checkpoint.
			if cp, ok := snapshot.LastCheckpoint(d.Store()); ok {
				st.mu.Lock()
				_ = json.Unmarshal(cp.State, &st.v)
				st.mu.Unlock()
			}
			svc := session.Attach(d, session.Policy{})
			if _, err := svc.RestoreSessions(); err != nil {
				return err
			}
			mu.Lock()
			services[d.Name()] = svc
			mu.Unlock()
			snapshot.Attach(d, func() any {
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.v
			})
			return nil
		})
	}))
	rt := core.NewRuntime(net, reg)
	defer rt.StopAll()
	rt.SetTransportConfig(transport.Config{RTO: fastRTO})
	for host, name := range map[string]string{"hhub": "hub", "h1": "m1"} {
		if err := rt.Install(host, "node"); err != nil {
			b.Fatal(err)
		}
		d, err := rt.Launch(host, "node", name)
		if err != nil {
			b.Fatal(err)
		}
		dir.Register(context.Background(), directory.Entry{Name: name, Type: "node", Addr: d.Addr()})
	}
	iniD := benchDapplet(b, net, "hq", "director")
	ini := session.NewInitiator(iniD, dir)
	h, err := ini.Initiate(context.Background(), session.Spec{
		ID: "e9",
		Participants: []session.Participant{
			{Name: "hub", Role: "hub"}, {Name: "m1", Role: "member"},
		},
		Links: []session.Link{
			{From: "m1", Outbox: "up", To: "hub", Inbox: "requests"},
			{From: "hub", Outbox: "down", To: "m1", Inbox: "replies"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	// One durable checkpoint before the crash loop: every restart below
	// restores application state from it.
	states["m1"].mu.Lock()
	states["m1"].v = 1996
	states["m1"].mu.Unlock()
	m1, _ := rt.Dapplet("m1")
	if err := m1.Store().Set(snapshot.CheckpointVar,
		snapshot.Checkpoint{ID: "seed", State: json.RawMessage("1996")}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := rt.Crash("m1"); err != nil {
			b.Fatal(err)
		}
		states["m1"].v = 0 // lost with the process; restored from checkpoint
		b.StartTimer()
		d2, err := rt.Restart("m1")
		if err != nil {
			b.Fatal(err)
		}
		if err := h.ReincarnateAt(context.Background(), "m1", d2.Addr()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := states["m1"]
	st.mu.Lock()
	v := st.v
	st.mu.Unlock()
	if b.N > 0 && v != 1996 {
		b.Fatalf("restored state = %d, want 1996", v)
	}
	mem, ok := services["m1"].Membership("e9")
	if !ok || len(mem.Roster) != 2 {
		b.Fatal("membership not restored after final recovery")
	}
}

// benchDirCluster hosts a shards x replicas directory service, replica r
// of shard s on host "dir<s>-<r>".
func benchDirCluster(b *testing.B, net *netsim.Network, shards, replicas int) *directory.Cluster {
	b.Helper()
	refs := make([][]wire.InboxRef, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			name := fmt.Sprintf("dir%d-%d", s, r)
			refs[s] = append(refs[s], directory.Serve(benchDapplet(b, net, name, name)).Ref())
		}
	}
	cl, err := directory.NewCluster(refs)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// BenchmarkE10DirectoryLookup measures the replicated directory service
// (experiment E10 in DESIGN.md): lookup latency/throughput against
// shard/replica count, cached (version-stamped client cache hit) vs
// uncached (a full round trip to the owning shard's replica per lookup).
func BenchmarkE10DirectoryLookup(b *testing.B) {
	const names = 64
	for _, cfg := range []struct{ shards, replicas int }{{1, 1}, {2, 2}, {4, 2}} {
		for _, mode := range []string{"cached", "uncached"} {
			b.Run(fmt.Sprintf("shards=%d/replicas=%d/%s", cfg.shards, cfg.replicas, mode), func(b *testing.B) {
				net := netsim.New(netsim.WithSeed(12))
				defer net.Close()
				cl := benchDirCluster(b, net, cfg.shards, cfg.replicas)
				cli := directory.NewClient(benchDapplet(b, net, "hq", "dirclient"), cl)
				for i := 0; i < names; i++ {
					name := fmt.Sprintf("dapplet-%d", i)
					e := directory.Entry{Name: name, Type: "bench", Addr: netsim.Addr{Host: "h", Port: uint16(i + 1)}}
					if err := cli.Register(context.Background(), e); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					name := fmt.Sprintf("dapplet-%d", i%names)
					if mode == "uncached" {
						cli.Invalidate(name)
					}
					if _, ok := cli.Lookup(context.Background(), name); !ok {
						b.Fatal("lookup failed")
					}
				}
				b.StopTimer()
				st := cli.Stats()
				if total := st.Hits + st.Misses; total > 0 {
					b.ReportMetric(float64(st.Hits)/float64(total), "hit-rate")
				}
			})
		}
	}
}

// BenchmarkE10DirectoryFailover measures the cost of losing a replica:
// each iteration performs one uncached lookup; half way through the run
// the preferred replica's host is crashed, so the remaining lookups pay
// the detection timeout once and then resolve from the survivor.
func BenchmarkE10DirectoryFailover(b *testing.B) {
	net := netsim.New(netsim.WithSeed(13))
	defer net.Close()
	cl := benchDirCluster(b, net, 1, 2)
	cli := directory.NewClient(benchDapplet(b, net, "hq", "dirclient"), cl,
		directory.WithClientTimeout(100*time.Millisecond))
	if err := cli.Register(context.Background(), directory.Entry{Name: "svc", Type: "bench", Addr: netsim.Addr{Host: "h", Port: 1}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == b.N/2 {
			net.Crash("dir0-0")
		}
		cli.Invalidate("svc")
		if _, ok := cli.Lookup(context.Background(), "svc"); !ok {
			b.Fatal("lookup failed after replica crash")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cli.Stats().Failovers), "failovers")
}

// BenchmarkE7Interference measures §2.2 session scheduling on a dapplet's
// state: disjoint sessions proceed concurrently, interfering sessions
// serialize.
func BenchmarkE7Interference(b *testing.B) {
	run := func(b *testing.B, overlap bool) {
		st := state.NewStore()
		defer st.Close()
		const workers = 8
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				varName := fmt.Sprintf("v%p-%d", pb, i%workers)
				if overlap {
					varName = "shared"
				}
				id := fmt.Sprintf("s%p-%d", pb, i)
				acc := state.AccessSet{Write: []string{varName}}
				if err := st.Acquire(id, acc); err != nil {
					b.Error(err)
					return
				}
				st.Release(id)
			}
		})
	}
	b.Run("disjoint", func(b *testing.B) { run(b, false) })
	b.Run("overlapping", func(b *testing.B) { run(b, true) })
}

// BenchmarkE12FrameCoalescing measures transport-level frame coalescing
// (experiment E12 in DESIGN.md) on a busy bidirectional netsim pair: with
// Coalesce on, small frames share datagrams and acks piggyback on reverse
// traffic, so the pair emits several times fewer datagrams than logical
// frames. The frames/dgram metric is the coalescing factor.
func BenchmarkE12FrameCoalescing(b *testing.B) {
	for _, coalesce := range []bool{false, true} {
		b.Run(fmt.Sprintf("coalesce=%v", coalesce), func(b *testing.B) {
			net := netsim.New(netsim.WithSeed(12))
			defer net.Close()
			epA, _ := net.Host("a").Bind(1)
			epB, _ := net.Host("b").Bind(1)
			cfg := transport.Config{RTO: 50 * time.Millisecond, MaxRetries: 100, Window: 1024, Coalesce: coalesce}
			ra := transport.NewReliable(transport.NewSimConn(epA), cfg)
			rb := transport.NewReliable(transport.NewSimConn(epB), cfg)
			defer ra.Close()
			defer rb.Close()
			payload := make([]byte, 64)
			b.SetBytes(64)
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for _, pair := range [][2]*transport.Reliable{{ra, rb}, {rb, ra}} {
				snd, rcv := pair[0], pair[1]
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, _, err := rcv.Recv(); err != nil {
							errs <- err
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					to := rcv.LocalAddr()
					for i := 0; i < b.N; i++ {
						if err := snd.Send(to, payload); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
			sa, sb := ra.Stats(), rb.Stats()
			frames := sa.DataSent + sa.Retransmits + sa.AcksSent +
				sb.DataSent + sb.Retransmits + sb.AcksSent
			dgrams := sa.DatagramsOut + sb.DatagramsOut
			if dgrams > 0 {
				b.ReportMetric(float64(frames)/float64(dgrams), "frames/dgram")
			}
		})
	}
}

// BenchmarkE12UDPLoopback measures syscall batching over real loopback
// UDP (experiment E12): batched mode coalesces frames into datagrams and
// moves datagrams with sendmmsg/recvmmsg, so syscalls per frame collapse
// relative to the one-write-one-read-per-frame baseline.
func BenchmarkE12UDPLoopback(b *testing.B) {
	for _, batched := range []bool{false, true} {
		b.Run(fmt.Sprintf("batch=%v", batched), func(b *testing.B) {
			ucfg := transport.UDPConfig{}
			if batched {
				ucfg.Batch = 16
			}
			pcA, err := transport.ListenUDPConfig("127.0.0.1:0", ucfg)
			if err != nil {
				b.Skipf("loopback UDP unavailable: %v", err)
			}
			pcB, err := transport.ListenUDPConfig("127.0.0.1:0", ucfg)
			if err != nil {
				pcA.Close()
				b.Skipf("loopback UDP unavailable: %v", err)
			}
			cfg := transport.Config{RTO: 100 * time.Millisecond, MaxRetries: 100, Window: 1024, Coalesce: batched}
			ra := transport.NewReliable(pcA, cfg)
			rb := transport.NewReliable(pcB, cfg)
			defer ra.Close()
			defer rb.Close()
			payload := make([]byte, 64)
			b.SetBytes(64)
			b.ResetTimer()
			done := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if _, _, err := rb.Recv(); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			to := rb.LocalAddr()
			for i := 0; i < b.N; i++ {
				if err := ra.Send(to, payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			sa, sb := ra.Stats(), rb.Stats()
			calls := sa.IO.ReadCalls + sa.IO.WriteCalls + sb.IO.ReadCalls + sb.IO.WriteCalls
			frames := sa.DataSent + sa.Retransmits + sa.AcksSent +
				sb.DataSent + sb.Retransmits + sb.AcksSent
			if frames > 0 {
				b.ReportMetric(float64(calls)/float64(frames), "syscalls/frame")
			}
		})
	}
}
