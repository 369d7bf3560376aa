package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/wire"
	"repro/internal/world"
)

// calendarCell is one scheduling run over a generated calendar world: op
// i builds the world at seed+i outside the timed region and times the
// negotiation alone.
type calendarCell struct {
	opts        scenario.CalendarOptions
	traditional bool
	window      int
}

func (c calendarCell) cell(p Params, name string, defaultSeed int64) Cell {
	c.opts.Seed, c.opts.Shards = p.seed(defaultSeed), p.Shards
	return Cell{Name: name, Ops: 1, Run: c.run}
}

func (c calendarCell) run(ctx context.Context, t Timer, ops int) ([]Metric, error) {
	var res calendar.Result
	var net netsim.Stats
	for i := 0; i < ops; i++ {
		t.StopTimer()
		opts := c.opts
		opts.Seed += int64(i)
		w, err := scenario.BuildCalendar(ctx, opts)
		if err != nil {
			return nil, err
		}
		before := w.Net.Stats().Sent
		t.StartTimer()
		if c.traditional {
			res, err = w.Traditional.Schedule(ctx, 0, opts.Slots, c.window)
		} else {
			res, err = w.Scheduler.Schedule(ctx, 0, opts.Slots, c.window)
		}
		t.StopTimer()
		net = w.Net.Stats()
		net.Sent -= before
		w.Close()
		if err != nil {
			return nil, err
		}
	}
	return []Metric{
		m("slot", res.Slot), m("rounds", res.Rounds), m("proposals", res.Proposals), m("calls", res.Calls),
		m("datagrams", net.Sent), m("vlat-ms", ms(net.MaxVirtual)),
	}, nil
}

// f1Cells reproduces Figure 1 — the three-site committee under both
// schedulers over identical calendars — and ablates the secretary layer:
// per-site aggregation trades local hops for fewer WAN round trips per
// member.
func f1Cells(p Params) []Cell {
	var cells []Cell
	for _, mode := range []string{"session", "traditional"} {
		cells = append(cells, calendarCell{
			opts: scenario.CalendarOptions{Sites: 3, MembersPerSite: 3, Hierarchical: mode == "session",
				Slots: 112, BusyProb: 0.65, CommonSlot: 90},
			traditional: mode == "traditional", window: 28,
		}.cell(p, mode, 1996))
	}
	for _, mode := range []string{"hierarchical", "flat"} {
		cells = append(cells, calendarCell{
			opts: scenario.CalendarOptions{Sites: 4, MembersPerSite: 4, Hierarchical: mode == "hierarchical",
				Slots: 64, BusyProb: 0.5, CommonSlot: 40},
			window: 64,
		}.cell(p, "16-members/"+mode, 1))
	}
	return cells
}

// t1Cells sweeps committee size for both negotiation styles, then the
// negotiation window: one window over the whole horizon minimizes rounds
// but ships larger availability maps, and the common slot sits late so a
// narrow window must iterate.
func t1Cells(p Params) []Cell {
	var cells []Cell
	for _, members := range []int{3, 6, 12, 24, 48} {
		for _, mode := range []string{"session", "traditional"} {
			cells = append(cells, calendarCell{
				opts:        scenario.CalendarOptions{Sites: members, MembersPerSite: 1, Slots: 64, BusyProb: 0.4, CommonSlot: 50},
				traditional: mode == "traditional", window: 64,
			}.cell(p, fmt.Sprintf("members=%d/%s", members, mode), 77))
		}
	}
	for _, window := range []int{8, 16, 32, 64} {
		cells = append(cells, calendarCell{
			opts:   scenario.CalendarOptions{Sites: 6, MembersPerSite: 1, Slots: 64, BusyProb: 1.0, CommonSlot: 60},
			window: window,
		}.cell(p, fmt.Sprintf("window=%d", window), 1))
	}
	return cells
}

// f2Cells measures session setup and teardown as the participant count
// grows, under WAN delays.
func f2Cells(p Params) []Cell {
	var cells []Cell
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		cells = append(cells, Cell{Name: fmt.Sprintf("participants=%d", n), Ops: 1,
			Run: inWorld(p, 2, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				var roster []session.Participant
				for _, d := range dappletsN(w, "p", n) {
					session.Attach(d, session.Policy{})
					if err := w.Dir.Register(ctx, directory.Entry{Name: d.Name(), Type: d.Type(), Addr: d.Addr()}); err != nil {
						return nil, err
					}
					roster = append(roster, session.Participant{Name: d.Name(), Role: "member"})
				}
				ini := session.NewInitiator(w.Dapplet("hq", "bench", "director"), w.Dir)
				var start, end netsim.Stats // of the last op
				var up time.Duration        // virtual clock once it is set up
				t.ResetTimer()
				for i := 0; i < ops; i++ {
					start = w.Net.Stats()
					h, err := ini.Initiate(ctx, session.Spec{ID: fmt.Sprintf("f2-%d", i), Participants: roster})
					if err != nil {
						return nil, err
					}
					up = w.Net.MaxVirtual()
					if err := h.Terminate(ctx); err != nil {
						return nil, err
					}
					end = w.Net.Stats()
				}
				return []Metric{
					m("setup-vlat-ms", ms(up-start.MaxVirtual)), m("teardown-vlat-ms", ms(end.MaxVirtual-up)),
					m("datagrams", end.Sent-start.Sent),
				}, nil
			}, netsim.WithDefaultDelay(netsim.WAN()))})
	}
	return cells
}

// f3Cells measures Figure 3's binding patterns: one outbox bound to fan
// inboxes (an op is one Send copied along every channel) and fan outboxes
// bound to one inbox (an op is one Send from each).
func f3Cells(p Params) []Cell {
	payload := &wire.Text{S: "payload-payload-payload-payload"}
	cell := func(name string, fan int, fanOut bool) Cell {
		return Cell{Name: fmt.Sprintf("%s=%d", name, fan), Ops: 2000,
			Run: inWorld(p, 3, func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error) {
				hub := w.Dapplet("hub", "bench", "hub")
				var outs []*core.Outbox // each sends once per op
				var ins []*core.Inbox   // one entry per channel: each receives once per op
				for _, spoke := range dappletsN(w, "s", fan) {
					from, to := hub, spoke
					if !fanOut {
						from, to = spoke, hub
					}
					out, in := from.Outbox("out"), to.Inbox("in")
					out.Add(in.Ref())
					ins = append(ins, in)
					if len(outs) == 0 || !fanOut {
						outs = append(outs, out)
					}
				}
				t.ResetTimer()
				for i := 0; i < ops; i++ {
					for _, out := range outs {
						if err := out.Send(payload); err != nil {
							return nil, err
						}
					}
					for _, in := range ins {
						if _, err := in.ReceiveContext(ctx); err != nil {
							return nil, err
						}
					}
				}
				return []Metric{m("deliveries", ops*fan)}, nil
			})}
	}
	var cells []Cell
	for _, fan := range []int{1, 4, 16, 64} {
		cells = append(cells, cell("fan-out", fan, true))
	}
	for _, fan := range []int{1, 4, 16} {
		cells = append(cells, cell("fan-in", fan, false))
	}
	return cells
}
