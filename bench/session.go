package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/session"
	"repro/internal/wire"
)

const (
	groupSize   = 64 // session participants; participant 0 broadcasts
	groupHosts  = 32
	listeners   = groupSize - 1
	bcastOutbox = "bcast"
	bcastInbox  = "news"
)

// group is 64 session-capable dapplets over 32 simulated hosts plus an
// initiator with an in-process directory. Every member consumes inbox
// "news" on a Dapplet.Handle thread; sessions wire them into the default
// relay tree (fanout 4, depth 3). One broadcast is in flight at a time:
// the next is sent when all 63 listeners have the previous.
type group struct {
	w       *world
	ini     *session.Initiator
	spec    session.Spec
	out     *core.Outbox
	payload []byte
	epoch   time.Time
	next    uint64 // next broadcast id; strictly +1 at every listener
	nsess   int
	handle  *session.Handle // the standing session (session_bcast only)
	cycle   bool            // session_setup: each op is initiate, one broadcast, terminate

	pending atomic.Int32  // listeners still to receive the broadcast in flight
	lastAt  atomic.Int64  // when the last of them did, ns since epoch
	done    chan struct{} // signalled by that listener
	bad     atomic.Uint64 // deliveries that were not the listener's next id
}

func (g *group) world() *world  { return g.w }
func (g *group) nextID() uint64 { return g.next }

func buildGroup(cycle bool) func(context.Context, *workload, int64, *tracer) (instance, error) {
	return func(ctx context.Context, wl *workload, seed int64, tr *tracer) (instance, error) {
		g := &group{
			w:       &world{net: netsim.New(netsim.WithSeed(seed)), tr: tr},
			payload: seededPayload(seed, wl.payload), epoch: time.Now(), next: 1, cycle: cycle,
			done: make(chan struct{}, 1),
		}
		dir := directory.New()
		for i := 0; i < groupSize; i++ {
			name := fmt.Sprintf("m%02d", i)
			d, err := g.w.addSim(fmt.Sprintf("h%02d", i%groupHosts), name)
			if err != nil {
				g.w.close()
				return nil, err
			}
			g.w.services = append(g.w.services, session.Attach(d, session.Policy{}))
			if err := dir.Register(ctx, directory.Entry{Name: name, Type: "bench", Addr: d.Addr()}); err != nil {
				g.w.close()
				return nil, err
			}
			g.spec.Participants = append(g.spec.Participants, session.Participant{Name: name, Role: "member"})
			if i > 0 {
				d.Handle(bcastInbox, g.listener(i))
				g.w.inboxes = append(g.w.inboxes, d.Inbox(bcastInbox))
			}
		}
		iniD, err := g.w.addSim("hini", "ini")
		if err != nil {
			g.w.close()
			return nil, err
		}
		g.ini = session.NewInitiator(iniD, dir)
		g.spec.Task = "bench broadcast"
		g.spec.Tree = &session.TreeSpec{Outbox: bcastOutbox, Inbox: bcastInbox}
		g.out = g.w.daps[0].Outbox(bcastOutbox)
		if !cycle {
			if g.handle, err = g.initiate(ctx); err != nil {
				g.w.close()
				return nil, err
			}
		}
		return g, nil
	}
}

// initiate sets up the 64-participant tree session under a fresh
// fixed-width id, so the bytes a session costs do not drift with the
// cycle count.
func (g *group) initiate(ctx context.Context) (*session.Handle, error) {
	spec := g.spec
	spec.Participants = append([]session.Participant(nil), g.spec.Participants...)
	g.nsess++
	spec.ID = fmt.Sprintf("bench-%08d", g.nsess)
	return g.ini.Initiate(ctx, spec)
}

// listener checks that member i gets every broadcast exactly once, in
// order; the one that completes a broadcast signals the sender.
func (g *group) listener(i int) func(*wire.Envelope) {
	var seen uint64
	tr := g.w.tr
	return func(env *wire.Envelope) {
		b, ok := env.Body.(*wire.Bytes)
		if !ok {
			g.bad.Add(1)
			return
		}
		id, ok := trailerID(b.B)
		if !ok || len(b.B) != len(g.payload) {
			g.bad.Add(1)
			return
		}
		if tr != nil {
			tr.end(id, i)
		}
		if id != seen+1 {
			g.bad.Add(1)
			if id <= seen {
				return // a duplicate must not complete the broadcast
			}
		}
		seen = id
		if g.pending.Add(-1) == 0 {
			g.lastAt.Store(int64(time.Since(g.epoch)))
			g.done <- struct{}{}
		}
	}
}

// broadcast sends one message from participant 0 and waits until every
// listener has it. It returns the time from just before Outbox.Send to
// the last listener's receive.
func (g *group) broadcast(ctx context.Context, t *tally) (time.Duration, bool) {
	id := g.next
	g.next++
	putTrailer(g.payload, id)
	g.pending.Store(listeners)
	tr := g.w.tr
	if tr != nil {
		tr.start(id, 0)
	}
	t0 := time.Since(g.epoch)
	err := g.out.Send(&wire.Bytes{B: g.payload})
	t.auxAdd("send", int64(time.Since(g.epoch)-t0))
	if tr != nil {
		tr.sendRet(id, 0)
	}
	if err != nil {
		t.fail(listeners, "broadcast %d: %v", id, err)
		return 0, false
	}
	select {
	case <-g.done:
		return time.Duration(g.lastAt.Load()) - t0, true
	case <-ctx.Done():
		t.fail(uint64(g.pending.Load()), "broadcast %d: %d listeners never received it", id, g.pending.Load())
		return 0, false
	}
}

func (g *group) drive(ctx context.Context, limit int, stop *atomic.Bool, t *tally) {
	for n := 0; ((limit > 0 && n < limit) || (limit == 0 && !stop.Load())) && ctx.Err() == nil; n++ {
		if g.cycle {
			g.sessionCycle(ctx, t)
			continue
		}
		t.attempted += listeners
		if d, ok := g.broadcast(ctx, t); ok {
			t.ops += listeners
			t.lat.add(int64(d))
		}
	}
	if bad := g.bad.Swap(0); bad > 0 {
		t.fail(bad, "%d deliveries out of order, duplicated or malformed", bad)
	}
}

// sessionCycle is one op of session_setup: Initiate, the first
// broadcast over the new tree, Terminate.
func (g *group) sessionCycle(ctx context.Context, t *tally) {
	t.attempted++
	var before counters
	if g.w.tr != nil {
		before = counters{net: g.w.net.Stats(), mem: readMem()}
	}
	t0 := time.Now()
	h, err := g.initiate(ctx)
	setup := time.Since(t0)
	if err != nil {
		t.fail(1, "initiate: %v", err)
		return
	}
	if g.w.tr != nil {
		net, mem := g.w.net.Stats(), readMem()
		t.auxAdd("setup_wire_bytes", int64(net.WireBytes-before.net.WireBytes))
		t.auxAdd("setup_datagrams", int64(net.Sent-before.net.Sent))
		t.auxAdd("setup_allocs", int64(mem.Mallocs-before.mem.Mallocs))
	}
	first, delivered := g.broadcast(ctx, t)
	t1 := time.Now()
	err = h.Terminate(ctx)
	if err != nil {
		t.fail(1, "terminate: %v", err)
		return
	}
	if !delivered {
		return
	}
	t.ops++
	t.lat.add(int64(setup))
	t.auxAdd("first_bcast", int64(first))
	t.auxAdd("terminate", int64(time.Since(t1)))
}

func (g *group) finish(ctx context.Context, t *tally, vals map[string]float64, before, after *counters) {
	if g.cycle {
		vals["session.setup_p50_ms"] = t.lat.p50() / 1e6
		vals["session.terminate_p50_ms"] = t.auxP50("terminate") / 1e6
		vals["session.first_bcast_us"] = t.auxP50("first_bcast") / 1e3
		if g.w.tr != nil {
			vals["session.setup_wire_bytes"] = t.auxP50("setup_wire_bytes")
			vals["session.setup_datagrams"] = t.auxP50("setup_datagrams")
			vals["session.setup_allocs"] = t.auxP50("setup_allocs")
		}
		return
	}
	if err := g.handle.Terminate(ctx); err != nil {
		t.fail(1, "terminate: %v", err)
	}
	if bcasts := float64(t.attempted / listeners); bcasts > 0 {
		vals["relay.sender_ns"] = t.auxP50("send")
		vals["relay.forwarded_per_bcast"] = float64(after.fwd-before.fwd) / bcasts
		vals["relay.dup_dropped"] = float64(after.dupRx - before.dupRx)
		vals["relay.root_bytes_per_bcast"] = float64(after.root.BytesOut-before.root.BytesOut) / bcasts
	}
}

// treeParent and treeDepth follow relay.Tree's heap layout over the
// roster order: member i's parent is (i-1)/k.
func treeParent(i int) int { return (i - 1) / relay.DefaultFanout }

func treeDepth(i int) int {
	d := 0
	for ; i > 0; i = treeParent(i) {
		d++
	}
	return d
}

// analyse tiles, for every sampled broadcast and every listener, the
// path from the origin's Send down the tree to that listener's handler.
// Each tree edge is one hop; its segments are recorded once, on the
// path of the member it leads to.
func (g *group) analyse(sg *segments) {
	tr := g.w.tr
	for _, id := range tr.sampled(g.next) {
		sg.messages++
		s0 := tr.hop(id, 0).start.Load()
		for m := 1; m < groupSize; m++ {
			var path []int // root's child ... m
			for c := m; c > 0; c = treeParent(c) {
				path = append([]int{c}, path...)
			}
			pts := []pathPoint{{"", s0}}
			own := 0
			for _, c := range path {
				own = len(pts) - 1
				wp := wirePoints(tr.hop(id, c), "netsim.write_ns", "netsim.queue_ns")
				wp[0].seg = "relay.forward_ns"
				pts = append(pts, wp...)
			}
			h := tr.hop(id, m)
			pts = append(pts, pathPoint{"relay.deliver_ns", h.obsLocal.Load()}, pathPoint{"core.deliver_ns", h.end.Load()})
			if sg.tileFrom(id, m, "broadcast", pts, own) {
				sg.depth[treeDepth(m)].add(h.end.Load() - s0)
			}
		}
	}
}
