package main

import (
	"bytes"
	"context"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/wire"
)

// pingpong is one svc.Caller on dapplet 0 with one Call in flight
// against an echo handler served on dapplet 1.
type pingpong struct {
	w       *world
	caller  *svc.Caller
	echo    wire.InboxRef
	payload []byte
	epoch   time.Time
	next    uint64
}

func (p *pingpong) world() *world  { return p.w }
func (p *pingpong) nextID() uint64 { return p.next }

func buildPingpong(_ context.Context, wl *workload, seed int64, tr *tracer) (instance, error) {
	w, a, b, err := newSimPair(tr, netsim.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	srv := svc.Serve(b, "echo", svc.Handlers{
		"wire.bytes": func(_ *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			if tr != nil {
				// Handler entry ends the request leg and starts the
				// reply leg.
				if id, ok := trailerID(req.(*wire.Bytes).B); ok {
					tr.end(id, 1)
					tr.start(id, 0)
				}
			}
			return req, nil
		},
	})
	w.inboxes = append(w.inboxes, b.Inbox("echo"))
	return &pingpong{
		w: w, caller: svc.NewCaller(a), echo: srv.Ref(),
		payload: seededPayload(seed, wl.payload), epoch: time.Now(), next: 1,
	}, nil
}

func (p *pingpong) drive(ctx context.Context, limit int, stop *atomic.Bool, t *tally) {
	tr := p.w.tr
	req := &wire.Bytes{B: p.payload}
	for n := 0; (limit > 0 && n < limit) || (limit == 0 && !stop.Load()); n++ {
		id := p.next
		p.next++
		putTrailer(p.payload, id)
		var resp wire.Bytes
		t.attempted++
		t0 := time.Since(p.epoch)
		if tr != nil {
			tr.start(id, 1)
		}
		err := p.caller.Call(ctx, p.echo, req, &resp)
		if tr != nil {
			tr.end(id, 0)
		}
		t1 := time.Since(p.epoch)
		switch {
		case err != nil:
			t.fail(1, "call %d: %v", id, err)
			if ctx.Err() != nil {
				return
			}
		case !bytes.Equal(resp.B, p.payload):
			t.fail(1, "call %d: echo differs from request", id)
		default:
			t.ops++
			t.lat.add(int64(t1 - t0))
		}
	}
}

func (p *pingpong) finish(context.Context, *tally, map[string]float64, *counters, *counters) {
}

func (p *pingpong) analyse(sg *segments) {
	tr := p.w.tr
	for _, id := range tr.sampled(p.next) {
		sg.messages++
		// Leg 0 is the request to member 1, leg 1 the reply to member 0.
		for dst := 1; dst >= 0; dst-- {
			h := tr.hop(id, dst)
			leg := "svc.req_leg_ns"
			if dst == 0 {
				leg = "svc.rep_leg_ns"
			}
			if sg.tile(id, dst, leg, pairPath(h, "netsim.write_ns", "netsim.queue_ns")) {
				sg.add(leg, h.end.Load()-h.start.Load())
			}
		}
	}
}
