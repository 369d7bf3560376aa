package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/lclock"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/state"
	"repro/internal/syncprim"
	"repro/internal/tokens"
	"repro/internal/transport"
	"repro/internal/wire"
)

// runE1 measures the reliable ordered layer under loss: goodput,
// retransmissions and duplicate suppression.
func runE1() {
	const msgs = 3000
	row("loss%", "msgs/s(wall)", "retx/msg", "dups-dropped", "delivered")
	for _, loss := range []float64{0, 0.01, 0.05, 0.10, 0.20} {
		net := newNet(4)
		net.SetLink("a", "b", netsim.LinkParams{Loss: loss, Dup: 0.01, Reorder: 0.05})
		epA, _ := net.Host("a").Bind(1)
		epB, _ := net.Host("b").Bind(1)
		cfg := transport.Config{Window: 64}
		ra := transport.NewReliable(transport.NewSimConn(epA), cfg)
		rb := transport.NewReliable(transport.NewSimConn(epB), cfg)
		payload := make([]byte, 256)
		start := time.Now()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < msgs; i++ {
				if _, _, err := rb.Recv(); err != nil {
					log.Fatal(err)
				}
			}
		}()
		for i := 0; i < msgs; i++ {
			if err := ra.Send(rb.LocalAddr(), payload); err != nil {
				log.Fatal(err)
			}
		}
		<-done
		dur := time.Since(start)
		sa, sb := ra.Stats(), rb.Stats()
		row(fmt.Sprintf("%.0f", loss*100), int(float64(msgs)/dur.Seconds()),
			fmt.Sprintf("%.3f", float64(sa.Retransmits)/float64(msgs)),
			sb.DupsDropped, sb.Delivered)
		ra.Close()
		rb.Close()
		net.Close()
	}
}

// runE2 measures token grant throughput under contention and deadlock
// detection latency for wait cycles of growing size.
func runE2() {
	row("clients", "grant-release/s(wall)")
	for _, clients := range []int{1, 2, 4, 8} {
		net := newNet(5)
		hub := newDapplet(net, "hub", "hub")
		alloc := tokens.Serve(hub, tokens.Bag{"r": clients})
		const per = 500
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			mgr := tokens.NewManager(newDapplet(net, fmt.Sprintf("h%d", c), fmt.Sprintf("c%d", c)), alloc.Ref())
			wg.Add(1)
			go func(m *tokens.Manager) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := m.Request(tokens.Bag{"r": 1}); err != nil {
						log.Fatal(err)
					}
					if err := m.Release(tokens.Bag{"r": 1}); err != nil {
						log.Fatal(err)
					}
				}
			}(mgr)
		}
		wg.Wait()
		dur := time.Since(start)
		row(clients, int(float64(clients*per)/dur.Seconds()))
		net.Close()
	}

	row("cycle-size", "deadlock-detect-latency(wall)")
	for _, n := range []int{2, 4, 8} {
		net := newNet(6)
		hub := newDapplet(net, "hub", "hub")
		pop := tokens.Bag{}
		for i := 0; i < n; i++ {
			pop[tokens.Color(fmt.Sprintf("f%d", i))] = 1
		}
		alloc := tokens.Serve(hub, pop)
		mgrs := make([]*tokens.Manager, n)
		for i := range mgrs {
			mgrs[i] = tokens.NewManager(newDapplet(net, fmt.Sprintf("h%d", i), fmt.Sprintf("p%d", i)), alloc.Ref())
			if err := mgrs[i].Request(tokens.Bag{tokens.Color(fmt.Sprintf("f%d", i)): 1}); err != nil {
				log.Fatal(err)
			}
		}
		// Close the cycle: everyone requests its neighbour's fork.
		start := time.Now()
		errs := make(chan error, n)
		for i := range mgrs {
			next := tokens.Color(fmt.Sprintf("f%d", (i+1)%n))
			go func(m *tokens.Manager, c tokens.Color) {
				errs <- m.Request(tokens.Bag{c: 1})
			}(mgrs[i], next)
		}
		detected := time.Duration(0)
		for i := 0; i < n; i++ {
			if err := <-errs; errors.Is(err, tokens.ErrDeadlock) && detected == 0 {
				detected = time.Since(start)
			}
		}
		row(n, detected.Round(time.Microsecond))
		net.Close()
	}
}

// runE3 demonstrates the global snapshot criterion: with the Lamport
// layer there are zero violations; with naive unsynchronized counters a
// large fraction of receives violate it. Also reports stamping cost.
func runE3() {
	const hops = 20000
	// A ring of four relays; each receive checks the criterion.
	row("clock", "messages", "criterion-violations")
	for _, mode := range []string{"lamport", "naive"} {
		violations := 0
		n := 4
		clocks := make([]*lclock.Clock, n)
		naive := make([]uint64, n)
		for i := range clocks {
			clocks[i] = lclock.New(fmt.Sprintf("p%d", i))
		}
		// Simulate uneven local activity: process 0 is busy.
		for i := 0; i < hops; i++ {
			src := i % n
			dst := (i + 1) % n
			if src == 0 {
				for k := 0; k < 3; k++ {
					clocks[0].Tick()
					naive[0]++
				}
			}
			var stamp uint64
			if mode == "lamport" {
				stamp = clocks[src].StampSend()
				after := clocks[dst].ObserveRecv(stamp)
				if after <= stamp {
					violations++
				}
			} else {
				naive[src]++
				stamp = naive[src]
				naive[dst]++
				if naive[dst] <= stamp {
					violations++
				}
			}
		}
		row(mode, hops, violations)
	}

	start := time.Now()
	c1, c2 := lclock.New("a"), lclock.New("b")
	const ops = 1_000_000
	for i := 0; i < ops; i++ {
		c2.ObserveRecv(c1.StampSend())
	}
	perOp := time.Since(start) / ops
	fmt.Printf("  stamping cost: %v per send+receive pair\n", perOp)
}

// runE4 sweeps snapshot membership for both algorithms over a live token
// ring, validating every cut.
func runE4() {
	row("nodes", "algorithm", "duration(wall)", "in-flight-captured", "consistent")
	for _, n := range []int{4, 8, 16} {
		for _, algo := range []string{"marker", "clock"} {
			net := newNet(7)
			members := make([]snapshot.Member, 0, n)
			services := make([]*snapshot.Service, 0, n)
			dapplets := make([]*core.Dapplet, 0, n)
			held := make([]int, n)
			var mu sync.Mutex
			for i := 0; i < n; i++ {
				d := newDapplet(net, fmt.Sprintf("n%d", i), fmt.Sprintf("node%d", i))
				dapplets = append(dapplets, d)
				i := i
				services = append(services, snapshot.Attach(d, func() any {
					mu.Lock()
					defer mu.Unlock()
					return held[i]
				}))
				members = append(members, snapshot.Member{Name: d.Name(), Addr: d.Addr()})
			}
			for i, d := range dapplets {
				next := dapplets[(i+1)%n]
				out := d.Outbox("succ")
				out.Add(wire.InboxRef{Dapplet: next.Addr(), Inbox: "ring"})
				d.Handle("ring", func(*wire.Envelope) {})
				i := i
				d.OnRecv(func(env *wire.Envelope) {
					if env.To.Inbox != "ring" {
						return
					}
					mu.Lock()
					held[i]++
					fwd := held[i] > 1
					if fwd {
						held[i]--
					}
					mu.Unlock()
					if fwd {
						_ = out.Send(&wire.Text{S: "tok"})
					}
				})
			}
			for i, svc := range services {
				peers := make([]snapshot.Member, 0, n-1)
				for j, m := range members {
					if j != i {
						peers = append(peers, m)
					}
				}
				svc.SetPeers(peers)
			}
			coordD := newDapplet(net, "coord", "coord")
			coord := snapshot.NewCoordinator(coordD, members)
			coord.SetSettle(5 * time.Millisecond)
			// Tokens: n held (1 each) + n/2 circulating.
			for i := 0; i < n+n/2; i++ {
				if err := dapplets[0].Outbox("succ").Send(&wire.Text{S: "tok"}); err != nil {
					log.Fatal(err)
				}
			}
			time.Sleep(20 * time.Millisecond)
			start := time.Now()
			var g *snapshot.Global
			var err error
			if algo == "marker" {
				g, err = coord.SnapshotMarker(context.Background())
			} else {
				g, err = coord.SnapshotClock(context.Background(), 1_000_000)
			}
			if err != nil {
				log.Fatal(err)
			}
			dur := time.Since(start)
			consistent := "yes"
			if err := g.CheckConsistent(); err != nil {
				consistent = "NO: " + err.Error()
			}
			row(n, algo, dur.Round(time.Microsecond), g.InFlight(), consistent)
			net.Close()
		}
	}
}

// runE5 measures RPC latency and throughput.
func runE5() {
	const calls = 3000
	row("mode", "clients", "calls/s(wall)")
	for _, clients := range []int{1, 4, 8} {
		net := newNet(8)
		server := newDapplet(net, "s", "server")
		var mu sync.Mutex
		n := 0
		ref := rpc.Serve(server, "counter", rpc.Object{
			"add": func(raw json.RawMessage) (any, error) {
				mu.Lock()
				defer mu.Unlock()
				n++
				return n, nil
			},
		})
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			cli := rpc.NewClient(newDapplet(net, fmt.Sprintf("c%d", c), fmt.Sprintf("client%d", c)))
			wg.Add(1)
			go func(cli *rpc.Client) {
				defer wg.Done()
				for i := 0; i < calls/clients; i++ {
					if err := cli.Call(context.Background(), ref, "add", nil, nil); err != nil {
						log.Fatal(err)
					}
				}
			}(cli)
		}
		wg.Wait()
		dur := time.Since(start)
		row("sync", clients, int(float64(calls)/dur.Seconds()))
		net.Close()
	}
	// Async: one client blasting casts.
	net := newNet(8)
	server := newDapplet(net, "s", "server")
	var mu sync.Mutex
	applied := 0
	ref := rpc.Serve(server, "counter", rpc.Object{
		"add": func(raw json.RawMessage) (any, error) {
			mu.Lock()
			defer mu.Unlock()
			applied++
			return applied, nil
		},
	})
	cli := rpc.NewClient(newDapplet(net, "c", "client"))
	start := time.Now()
	for i := 0; i < calls; i++ {
		if err := cli.Cast(ref, "add", nil); err != nil {
			log.Fatal(err)
		}
	}
	for {
		mu.Lock()
		done := applied == calls
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	dur := time.Since(start)
	row("async", 1, int(float64(calls)/dur.Seconds()))
	net.Close()
}

// runE6 measures the distributed barrier and token semaphore.
func runE6() {
	row("construct", "parties", "ops/s(wall)")
	for _, parties := range []int{2, 8, 32} {
		net := newNet(9)
		svc := syncprim.ServeBarriers(newDapplet(net, "hub", "coord"))
		clients := make([]*syncprim.Client, parties)
		for i := range clients {
			clients[i] = syncprim.NewClient(newDapplet(net, fmt.Sprintf("h%d", i), fmt.Sprintf("p%d", i)))
		}
		const rounds = 200
		start := time.Now()
		for r := 0; r < rounds; r++ {
			errs := make(chan error, parties)
			for _, c := range clients {
				go func(c *syncprim.Client) {
					_, err := c.BarrierAwait(svc.Ref(), "b", parties)
					errs <- err
				}(c)
			}
			for k := 0; k < parties; k++ {
				if err := <-errs; err != nil {
					log.Fatal(err)
				}
			}
		}
		dur := time.Since(start)
		row("dist-barrier", parties, int(float64(rounds)/dur.Seconds()))
		net.Close()
	}
}

// runE7 shows interference control at the session level: overlapping
// write sets are rejected (or serialized), disjoint sets run concurrently.
func runE7() {
	row("access-pattern", "sessions-attempted", "accepted", "rejected-interference")
	for _, pattern := range []string{"disjoint", "overlapping"} {
		net := newNet(10)
		target := newDapplet(net, "h", "shared-dapplet")
		session.Attach(target, session.Policy{})
		dirSvc := newDapplet(net, "hq", "director")
		dir := newDirectory(target)
		ini := session.NewInitiator(dirSvc, dir)
		const attempts = 8
		accepted, rejected := 0, 0
		for i := 0; i < attempts; i++ {
			v := "shared"
			if pattern == "disjoint" {
				v = fmt.Sprintf("v%d", i)
			}
			spec := session.Spec{
				ID: fmt.Sprintf("%s-%d", pattern, i),
				Participants: []session.Participant{{
					Name: "shared-dapplet", Role: "x",
					Access: state.AccessSet{Write: []string{v}},
				}},
			}
			_, err := ini.Initiate(context.Background(), spec)
			var rej *session.RejectedError
			switch {
			case err == nil:
				accepted++
			case errors.As(err, &rej):
				rejected++
			default:
				log.Fatal(err)
			}
		}
		row(pattern, attempts, accepted, rejected)
		net.Close()
	}
}

func newDirectory(ds ...*core.Dapplet) *dirT {
	d := dirNew()
	for _, dd := range ds {
		d.Register(context.Background(), dirEntry{Name: dd.Name(), Type: dd.Type(), Addr: dd.Addr()})
	}
	return d
}

// Aliases keeping the helper above terse.
type dirT = directory.Directory

type dirEntry = directory.Entry

func dirNew() *dirT { return directory.New() }
