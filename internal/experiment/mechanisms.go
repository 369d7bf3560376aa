package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
	"repro/internal/world"
)

// fanOutErr runs fn(0..n-1) concurrently and returns the first error.
func fanOutErr(n int, fn func(i int) error) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- fn(i) }()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// e1Cells streams 256 B messages through the reliable ordered layer over
// a link that drops, duplicates and reorders.
func e1Cells(p Params) []Cell {
	var cells []Cell
	for _, loss := range []float64{0, 0.01, 0.05, 0.10, 0.20} {
		cells = append(cells, Cell{Name: fmt.Sprintf("loss=%.0f%%", loss*100), Ops: 3000,
			Run: inWorld(p, 4, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				w.Net.SetLink("a", "b", netsim.LinkParams{Loss: loss, Dup: 0.01, Reorder: 0.05})
				cfg := transport.Config{Window: 64}
				var delivered sync.WaitGroup
				delivered.Add(ops)
				ra := transport.NewReliable(w.Conn("a"), cfg, func(_, _ []byte, _ netsim.Addr) {})
				rb := transport.NewReliable(w.Conn("b"), cfg, func(_, _ []byte, _ netsim.Addr) { delivered.Done() })
				defer ra.Close()
				defer rb.Close()
				payload := make([]byte, 256)
				t.ResetTimer()
				for i := 0; i < ops; i++ {
					if err := ra.SendWait(rb.LocalAddr(), nil, payload); err != nil {
						return nil, err
					}
				}
				delivered.Wait()
				sb := rb.Stats()
				return []Metric{
					m("retx/msg", ratio(ra.Stats().Retransmits, uint64(ops))),
					m("dups-dropped", sb.DupsDropped), m("delivered", sb.Delivered),
				}, nil
			})})
	}
	return cells
}

// e2Cells measures token grant/release round trips under contention, and
// the latency from closing a wait cycle of n managers to the deadlock
// exception.
func e2Cells(p Params) []Cell {
	var cells []Cell
	for _, clients := range []int{1, 2, 4, 8} {
		cells = append(cells, Cell{Name: fmt.Sprintf("grant-release/clients=%d", clients), Ops: 500 * clients,
			Run: inWorld(p, 5, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				alloc := tokens.Serve(w.Dapplet("hub", "bench", "hub"), tokens.Bag{"r": clients})
				ds := dappletsN(w, "c", clients)
				t.ResetTimer()
				if err := fanOutErr(clients, func(c int) error {
					mgr := tokens.NewManager(ds[c], alloc.Ref())
					for i := c; i < ops; i += clients {
						if err := mgr.Request(ctx, tokens.Bag{"r": 1}); err != nil {
							return err
						}
						if err := mgr.Release(tokens.Bag{"r": 1}); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return nil, err
				}
				if !alloc.ConservationHolds() {
					return nil, errors.New("token conservation violated")
				}
				return []Metric{m("grants", alloc.Stats().Grants)}, nil
			})})
	}
	for _, n := range []int{2, 4, 8} {
		cells = append(cells, Cell{Name: fmt.Sprintf("deadlock/cycle=%d", n), Ops: 1,
			Run: inWorld(p, 6, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				fork := func(i int) tokens.Bag { return tokens.Bag{tokens.Color(fmt.Sprintf("f%d", i%n)): 1} }
				forks := tokens.Bag{}
				for i := 0; i < n; i++ {
					forks.Add(fork(i))
				}
				alloc := tokens.Serve(w.Dapplet("hub", "bench", "hub"), forks)
				mgrs := make([]*tokens.Manager, n)
				for i, d := range dappletsN(w, "p", n) {
					mgrs[i] = tokens.NewManager(d, alloc.Ref())
				}
				t.ResetTimer()
				t.StopTimer()
				for op := 0; op < ops; op++ {
					for i, mgr := range mgrs {
						if err := mgr.Request(ctx, fork(i)); err != nil {
							return nil, err
						}
					}
					t.StartTimer()
					// Close the cycle: everyone requests its neighbour's fork,
					// and the allocator must refuse the whole cycle.
					if err := fanOutErr(n, func(i int) error {
						if err := mgrs[i].Request(ctx, fork(i+1)); !errors.Is(err, tokens.ErrDeadlock) {
							return fmt.Errorf("manager %d in a closed wait cycle: got %v, want a deadlock exception", i, err)
						}
						return nil
					}); err != nil {
						return nil, err
					}
					t.StopTimer()
					for _, mgr := range mgrs {
						if err := mgr.ReleaseAll(); err != nil {
							return nil, err
						}
					}
					// Releases are asynchronous; the next round needs every
					// fork back.
					for alloc.Free().Count() != n {
						time.Sleep(100 * time.Microsecond)
					}
				}
				return []Metric{m("deadlocks", alloc.Stats().Deadlocks)}, nil
			})})
	}
	return cells
}

// e3Cells demonstrates the global snapshot criterion on a ring of four
// processes with uneven local activity — Lamport stamping never violates
// it, naive counters do — and prices the stamping.
func e3Cells(Params) []Cell {
	criterion := func(lamport bool) runFunc {
		return func(_ context.Context, t Timer, ops int) ([]Metric, error) {
			const n = 4
			var clocks [n]*lclock.Clock
			var naive [n]uint64
			for i := range clocks {
				clocks[i] = lclock.New(fmt.Sprintf("p%d", i))
			}
			violations := 0
			t.ResetTimer()
			for i := 0; i < ops; i++ {
				src, dst := i%n, (i+1)%n
				if src == 0 { // process 0 is busy between messages
					for k := 0; k < 3; k++ {
						clocks[0].Tick()
						naive[0]++
					}
				}
				if lamport {
					stamp := clocks[src].StampSend()
					if clocks[dst].ObserveRecv(stamp) <= stamp {
						violations++
					}
				} else {
					naive[src]++
					naive[dst]++
					if naive[dst] <= naive[src] {
						violations++
					}
				}
			}
			if lamport && violations > 0 {
				return nil, fmt.Errorf("lamport clocks violated the snapshot criterion %d times", violations)
			}
			return []Metric{m("violations", violations)}, nil
		}
	}
	return []Cell{
		{Name: "criterion/lamport", Ops: 20000, Run: criterion(true)},
		{Name: "criterion/naive", Ops: 20000, Run: criterion(false)},
		{Name: "send-recv-pair", Ops: 1_000_000, Run: func(_ context.Context, t Timer, ops int) ([]Metric, error) {
			s, r := lclock.New("s"), lclock.New("r")
			t.ResetTimer()
			for i := 0; i < ops; i++ {
				r.ObserveRecv(s.StampSend())
			}
			return nil, nil
		}},
	}
}

// e4Cells takes both kinds of global checkpoint over a ring of n nodes
// that keeps n/2 tokens circulating, and validates every cut.
func e4Cells(p Params) []Cell {
	var cells []Cell
	for _, n := range []int{4, 8, 16} {
		for _, algo := range []string{"marker", "clock"} {
			cells = append(cells, Cell{Name: fmt.Sprintf("nodes=%d/%s", n, algo), Ops: 1,
				Run: inWorld(p, 7, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
					nodes := dappletsN(w, "node", n)
					held := make([]atomic.Bool, n) // node i holds its token
					members := make([]snapshot.Member, n)
					services := make([]*snapshot.Service, n)
					for i, d := range nodes {
						services[i] = snapshot.Attach(d, func() any { return held[i].Load() })
						members[i] = snapshot.Member{Name: d.Name(), Addr: d.Addr()}
						// Each node keeps one token and forwards the rest.
						out := d.Outbox("succ")
						out.Add(wire.InboxRef{Dapplet: nodes[(i+1)%n].Addr(), Inbox: "ring"})
						d.Handle("ring", func(*wire.Envelope) {
							if !held[i].CompareAndSwap(false, true) {
								_ = out.Send(&wire.Text{S: "tok"}) // fails only once the world is closing
							}
						})
					}
					for i, svc := range services {
						svc.SetPeers(slices.Delete(slices.Clone(members), i, i+1))
					}
					coord := snapshot.NewCoordinator(w.Dapplet("coord", "bench", "coord"), members)
					for i := 0; i < n+n/2; i++ {
						if err := nodes[0].Outbox("succ").Send(&wire.Text{S: "tok"}); err != nil {
							return nil, err
						}
					}
					time.Sleep(20 * time.Millisecond) // let every node take its token
					var g *snapshot.Global
					var err error
					t.ResetTimer()
					for i := 0; i < ops; i++ {
						if algo == "marker" {
							g, err = coord.SnapshotMarker(ctx)
						} else {
							g, err = coord.SnapshotClock(ctx, 1_000_000)
						}
						if err != nil {
							return nil, err
						}
						if err := g.CheckConsistent(); err != nil {
							return nil, err
						}
					}
					return []Metric{m("in-flight", g.InFlight())}, nil
				})})
		}
	}
	return cells
}

// e5Cells measures RPC over inboxes: synchronous calls from 1-8 clients,
// and one client blasting asynchronous casts until all are applied.
func e5Cells(p Params) []Cell {
	// serve hosts a counter object that counts the calls it applies.
	serve := func(w *world.World, applied *atomic.Int64) rpc.Ref {
		return rpc.Serve(w.Dapplet("s", "bench", "server"), "counter", rpc.Object{
			"add": func(json.RawMessage) (any, error) { return applied.Add(1), nil },
		})
	}
	var cells []Cell
	for _, clients := range []int{1, 4, 8} {
		cells = append(cells, Cell{Name: fmt.Sprintf("sync/clients=%d", clients), Ops: 3000,
			Run: inWorld(p, 8, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				var applied atomic.Int64
				ref := serve(w, &applied)
				ds := dappletsN(w, "client", clients)
				t.ResetTimer()
				if err := fanOutErr(clients, func(c int) error {
					cli := rpc.NewClient(ds[c])
					for i := c; i < ops; i += clients {
						if err := cli.Call(ctx, ref, "add", nil, nil); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return nil, err
				}
				return []Metric{m("applied", applied.Load())}, nil
			})})
	}
	cells = append(cells, Cell{Name: "async", Ops: 3000,
		Run: inWorld(p, 8, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
			var applied atomic.Int64
			ref := serve(w, &applied)
			cli := rpc.NewClient(w.Dapplet("c", "bench", "client"))
			t.ResetTimer()
			for i := 0; i < ops; i++ {
				if err := cli.Cast(ref, "add", nil); err != nil {
					return nil, err
				}
			}
			for applied.Load() < int64(ops) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				time.Sleep(time.Millisecond)
			}
			return []Metric{m("applied", ops)}, nil
		})})
	return cells
}

// e6Cells measures the distributed barrier as parties grow.
func e6Cells(p Params) []Cell {
	var cells []Cell
	for _, parties := range []int{2, 8, 32} {
		cells = append(cells, Cell{Name: fmt.Sprintf("dist-barrier/parties=%d", parties), Ops: 200,
			Run: inWorld(p, 9, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				svc := syncprim.ServeBarriers(w.Dapplet("hub", "bench", "coord"))
				ds := dappletsN(w, "p", parties)
				clients := make([]*syncprim.Client, parties)
				for i, d := range ds {
					clients[i] = syncprim.NewClient(d)
				}
				t.ResetTimer()
				for i := 0; i < ops; i++ {
					if err := fanOutErr(parties, func(c int) error {
						_, err := clients[c].BarrierAwait(ctx, svc.Ref(), "b", parties)
						return err
					}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})})
	}
	return cells
}

// e7Cells shows §2.2 interference control: a dapplet asked to join
// sessions with overlapping write sets accepts one and rejects the rest;
// sessions with disjoint write sets are all accepted.
func e7Cells(p Params) []Cell {
	var cells []Cell
	for _, pattern := range []string{"disjoint", "overlapping"} {
		cells = append(cells, Cell{Name: pattern, Ops: 8,
			Run: inWorld(p, 10, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				target := w.Dapplet("h", "bench", "shared-dapplet")
				session.Attach(target, session.Policy{})
				if err := w.Dir.Register(ctx, directory.Entry{Name: target.Name(), Type: target.Type(), Addr: target.Addr()}); err != nil {
					return nil, err
				}
				ini := session.NewInitiator(w.Dapplet("hq", "bench", "director"), w.Dir)
				accepted, rejected := 0, 0
				t.ResetTimer()
				for i := 0; i < ops; i++ {
					v := "shared"
					if pattern == "disjoint" {
						v = fmt.Sprintf("v%d", i)
					}
					_, err := ini.Initiate(ctx, session.Spec{
						ID: fmt.Sprintf("%s-%d", pattern, i),
						Participants: []session.Participant{{Name: target.Name(), Role: "x",
							Access: state.AccessSet{Write: []string{v}}}},
					})
					var rej *session.RejectedError
					switch {
					case err == nil:
						accepted++
					case errors.As(err, &rej):
						rejected++
					default:
						return nil, err
					}
				}
				return []Metric{m("accepted", accepted), m("rejected", rejected)}, nil
			})})
	}
	return cells
}
