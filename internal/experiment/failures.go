package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/wire"
	"repro/internal/world"
)

// e9Cells characterizes the failure subsystem: detection latency on a
// live pair across heartbeat intervals (expected ~Multiplier intervals to
// Suspect, twice that to Down), the full secretary-crash recovery
// scenario, and the bare recovery loop — restart, restore from the
// durable checkpoint and store, relink the survivors.
func e9Cells(p Params) []Cell {
	var cells []Cell
	for _, interval := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		cells = append(cells, Cell{Name: fmt.Sprintf("detect/interval=%s", interval), Ops: 1,
			Run: inWorld(p, 11, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				return e9Detect(ctx, t, ops, w, interval)
			})})
	}
	return append(cells,
		Cell{Name: "secretary-crash", Ops: 1, Run: func(ctx context.Context, t Timer, ops int) ([]Metric, error) {
			var res *scenario.RecoveryResult
			for i := 0; i < ops; i++ {
				var err error
				res, err = scenario.RunSecretaryCrashRecovery(ctx, scenario.CalendarOptions{Sites: 3, MembersPerSite: 3, Slots: 112,
					BusyProb: 0.6, CommonSlot: 77, Seed: p.seed(1996) + int64(i), Shards: p.Shards})
				if err != nil {
					return nil, err
				}
			}
			return []Metric{
				m("detection-ms", ms(res.Detection)), m("repair-ms", ms(res.Recovery)),
				m("retries", res.Retries), m("slot", res.Result.Slot),
			}, nil
		}},
		Cell{Name: "checkpoint-restore", Ops: 1, Run: inWorld(p, 10, e9CheckpointRestore)})
}

// e9Detect crashes a watched peer's host ops times and averages the
// watcher's Suspect and Down verdict latencies; between ops the host is
// restarted and the Up verdict awaited.
func e9Detect(ctx context.Context, t Timer, ops int, w *world.World, interval time.Duration) ([]Metric, error) {
	watcher := w.Dapplet("hw", "bench", "watcher")
	peer := w.Dapplet("hp", "bench", "peer")
	cfg := failure.Config{Interval: interval, Multiplier: 2}
	dw, dp := failure.Attach(watcher, cfg), failure.Attach(peer, cfg)
	// Buffered past the three verdicts of one crash/restart cycle, so the
	// detector's callback never blocks on a slow reader.
	verdicts := make(chan failure.State, 16)
	dw.OnEvent(func(ev failure.Event) { verdicts <- ev.State })
	await := func(want failure.State) error {
		for {
			select {
			case got := <-verdicts:
				if got == want {
					return nil
				}
			case <-ctx.Done():
				return fmt.Errorf("awaiting %v verdict: %w", want, ctx.Err())
			}
		}
	}
	dw.Watch("peer", peer.Addr())
	dp.Watch("watcher", watcher.Addr())
	time.Sleep(4 * interval)                                                // establish the heartbeat rhythm
	ctx, cancel := context.WithTimeout(ctx, time.Minute*time.Duration(ops)) // a verdict that never comes must not hang the run
	defer cancel()
	var suspect, down time.Duration
	t.ResetTimer()
	for i := 0; i < ops; i++ {
		start := time.Now()
		w.Net.Crash("hp")
		if err := await(failure.Suspect); err != nil {
			return nil, err
		}
		suspect += time.Since(start)
		if err := await(failure.Down); err != nil {
			return nil, err
		}
		down += time.Since(start)
		t.StopTimer()
		w.Net.Restart("hp")
		if err := await(failure.Up); err != nil {
			return nil, err
		}
		t.StartTimer()
	}
	return []Metric{m("suspect-ms", ms(suspect)/float64(ops)), m("down-ms", ms(down)/float64(ops))}, nil
}

// e9CheckpointRestore times the recovery half of E9 on a two-member
// session: per op, member m1 is crashed (untimed), then restarted on the
// same host — where it must find its application state in the durable
// snapshot checkpoint and its membership in the surviving store — and
// every survivor is relinked to the new incarnation.
func e9CheckpointRestore(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
	const checkpointed = 1996
	w.RT.Registry().Register("node", core.Factory(func() core.Behavior {
		return core.BehaviorFunc(func(d *core.Dapplet) error {
			v := 0 // application state, lost with the process
			cp, restarted := snapshot.LastCheckpoint(d.Store())
			if restarted {
				r := wire.NewReader(cp.State)
				v = int(r.Varint())
				if err := r.Done(); err != nil {
					return err
				}
			}
			sessions, err := session.Attach(d, session.Policy{}).RestoreSessions()
			if err != nil {
				return err
			}
			if restarted && (v != checkpointed || len(sessions) != 1) {
				return fmt.Errorf("restored state %d and sessions %v, want %d and [e9]", v, sessions, checkpointed)
			}
			snapshot.Attach(d, func() []byte { return wire.AppendVarint(nil, int64(v)) })
			return nil
		})
	}))
	for _, node := range [][2]string{{"hhub", "hub"}, {"h1", "m1"}} {
		if _, err := w.Launch(ctx, node[0], "node", node[1]); err != nil {
			return nil, err
		}
	}
	h, err := session.NewInitiator(w.Dapplet("hq", "bench", "director"), w.Dir).Initiate(ctx, session.Spec{
		ID:           "e9",
		Participants: []session.Participant{{Name: "hub", Role: "hub"}, {Name: "m1", Role: "member"}},
		Links: []session.Link{
			{From: "m1", Outbox: "up", To: "hub", Inbox: "requests"},
			{From: "hub", Outbox: "down", To: "m1", Inbox: "replies"},
		},
	})
	if err != nil {
		return nil, err
	}
	// One durable checkpoint before the crash loop: every restart below
	// restores application state from it.
	m1, _ := w.RT.Dapplet("m1")
	seed, _ := (&snapshot.Checkpoint{ID: "seed", State: wire.AppendVarint(nil, checkpointed)}).AppendBinary(nil) // its error is always nil
	m1.Store().Set(snapshot.CheckpointVar, seed)
	t.ResetTimer()
	for i := 0; i < ops; i++ {
		t.StopTimer()
		if err := w.RT.Crash("m1"); err != nil {
			return nil, err
		}
		t.StartTimer()
		d2, err := w.RT.Restart("m1")
		if err != nil {
			return nil, err
		}
		if err := h.ReincarnateAt(ctx, "m1", d2.Addr()); err != nil {
			return nil, err
		}
	}
	return []Metric{m("recoveries", ops)}, nil
}

// e10Cells characterizes the replicated directory service: lookups
// against shard/replica topologies, cached (client cache hit) vs uncached
// (a round trip to the owning shard per lookup); a replica crash under
// load; and failure-driven expiry of a dead registrant's entry.
func e10Cells(p Params) []Cell {
	const names = 64
	var cells []Cell
	for _, topo := range [][2]int{{1, 1}, {2, 2}, {4, 2}, {8, 2}} {
		for _, mode := range []string{"cached", "uncached"} {
			cells = append(cells, Cell{Name: fmt.Sprintf("shards=%d/replicas=%d/%s", topo[0], topo[1], mode), Ops: 5000,
				Run: inWorld(p, 12, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
					cli, err := w.Directory(topo[0], topo[1])
					if err != nil {
						return nil, err
					}
					for i := 0; i < names; i++ {
						e := directory.Entry{Name: fmt.Sprintf("dapplet-%d", i), Type: "bench", Addr: netsim.Addr{Host: "h", Port: uint16(i + 1)}}
						if err := cli.Register(ctx, e); err != nil {
							return nil, err
						}
					}
					t.ResetTimer()
					for i := 0; i < ops; i++ {
						name := fmt.Sprintf("dapplet-%d", i%names)
						if mode == "uncached" {
							cli.Invalidate(name)
						}
						if _, err := cli.MustLookup(ctx, name); err != nil {
							return nil, err
						}
					}
					return []Metric{m("hit-rate", cli.Stats().HitRate())}, nil
				})})
		}
	}
	return append(cells,
		// The preferred replica of the only shard dies: the first uncached
		// lookup pays one detection timeout and fails over (untimed,
		// reported as first-lookup-ms); every op after it is an uncached
		// lookup served by the survivor.
		Cell{Name: "replica-crash", Ops: 1000, Run: inWorld(p, 13, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
			cli, err := w.Directory(1, 2, directory.WithClientTimeout(100*time.Millisecond))
			if err != nil {
				return nil, err
			}
			if err := cli.Register(ctx, directory.Entry{Name: "svc", Type: "bench", Addr: netsim.Addr{Host: "h", Port: 1}}); err != nil {
				return nil, err
			}
			w.Net.Crash(world.DirReplicaHost(0, 0))
			cli.FlushCache()
			start := time.Now()
			if _, err := cli.MustLookup(ctx, "svc"); err != nil {
				return nil, fmt.Errorf("lookup after replica crash: %w", err)
			}
			first := time.Since(start)
			t.ResetTimer()
			for i := 0; i < ops; i++ {
				cli.Invalidate("svc")
				if _, err := cli.MustLookup(ctx, "svc"); err != nil {
					return nil, fmt.Errorf("survivor lookup: %w", err)
				}
			}
			return []Metric{m("first-lookup-ms", ms(first)), m("failovers", cli.Stats().Failovers)}, nil
		})},
		// A replica's own detector declares a dead registrant Down and
		// expires its entry — no Remove anywhere.
		Cell{Name: "failure-driven-expiry", Ops: 1, Run: inWorld(p, 14, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
			svcD := w.Dapplet("hs", "bench", "dir0-0")
			svc := directory.Serve(svcD)
			cfg := failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2}
			failure.BindDirectory(failure.Attach(svcD, cfg), svc)
			ctx, cancel := context.WithTimeout(ctx, time.Minute*time.Duration(ops)) // an entry that never expires must not hang the run
			defer cancel()
			var expiry time.Duration
			t.ResetTimer()
			for i := 0; i < ops; i++ {
				t.StopTimer()
				host := fmt.Sprintf("hw%d", i)
				worker := w.Dapplet(host, "bench", "worker")
				failure.Attach(worker, cfg).Watch(svcD.Name(), svcD.Addr())
				svc.Register(directory.Entry{Name: "worker", Type: "node", Addr: worker.Addr()})
				time.Sleep(50 * time.Millisecond) // establish the heartbeat rhythm
				t.StartTimer()
				start := time.Now()
				w.Net.Crash(host)
				for {
					if _, _, ok := svc.Lookup("worker"); !ok {
						break
					}
					if err := ctx.Err(); err != nil {
						return nil, fmt.Errorf("dead registrant's entry never expired: %w", err)
					}
					time.Sleep(time.Millisecond)
				}
				expiry = time.Since(start)
			}
			return []Metric{m("expiry-ms", ms(expiry))}, nil
		})})
}
