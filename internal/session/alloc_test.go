package session_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/wire"
)

// TestSessionSetupAllocs holds a tree session's life — Initiate, the
// first broadcast over the new tree, Terminate — to a budget of
// allocations, counted across every goroutine of the process: the
// initiator's, each member's receive goroutine and the transport's
// timers. The members decode the same names, hosts and session id in
// every cycle, so the decoders' interned strings keep the count down.
//
// The total is held at 16 members, and the slope between 16 and 48:
// what one more member adds to a cycle. What a member must cost is what
// its invitation's decode makes (its view and tree spec), its
// membership, its relay neighbours, its durable record and the
// broadcast it is delivered (about 8; its request bodies are decoded
// into its service's lent scratch); a new site that allocates per member
// shows in the slope however small it is beside the total.
func TestSessionSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var small, large float64
	t.Run("16", func(t *testing.T) { small = setupAllocs(t, 16) })
	t.Run("48", func(t *testing.T) { large = setupAllocs(t, 48) })
	if t.Failed() {
		return
	}
	const budget = 200 // it reads 161–166; 210–214 while each request was decoded afresh and one batch was read, 406–409 while each member's invite, view, replies and relay state were allocated
	if small > budget {
		t.Fatalf("one set-up, broadcast and terminate of a 16-member tree session allocates %.1f times, want <= %d", small, budget)
	}
	const perMember = 9 // it reads 8.1–8.6; 9.9–10.7 while each request was decoded afresh, about 22 before
	if slope := (large - small) / 32; slope > perMember {
		t.Fatalf("each member past 16 adds %.1f allocations to a cycle (%.1f at 16, %.1f at 48), want <= %d", slope, small, large, perMember)
	}
}

// setupAllocs runs cycles of a tree session over members participants
// in a world of its own and returns the allocations per cycle.
func setupAllocs(t *testing.T, members int) float64 {
	w := newSWorld(t)
	names := make([]string, members)
	ds := make([]*core.Dapplet, members)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
		ds[i] = w.add(fmt.Sprintf("site%d", i%8), names[i], "member", session.Policy{})
	}
	ini := w.initiator("site0", "director")
	ctx := waitCtx(t)
	out := ds[0].Outbox("bcast")
	n := 0
	cycle := func() {
		n++
		h, err := ini.Initiate(ctx, treeSpec(fmt.Sprintf("setup-%04d", n), names, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Send(&wire.Text{S: "first"}); err != nil {
			t.Fatal(err)
		}
		// Polled: a receive bounded by ctx allocates its wake-up, three
		// allocations a member that are the test's, not the session's.
		for _, d := range ds[1:] {
			for in := d.Inbox("news"); ; runtime.Gosched() {
				if _, ok := in.TryReceive(); ok {
					break
				}
				if ctx.Err() != nil {
					t.Fatalf("%s: no broadcast: %v", d.Name(), ctx.Err())
				}
			}
		}
		if err := h.Terminate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 { // warm the pools, the free lists and the decoders
		cycle()
	}
	// The fewest of three batches: a retransmission, when a loaded box
	// holds an ack back past the timeout, only ever adds allocations.
	const batches, cycles = 3, 10
	allocs := math.Inf(1)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range cycles {
			cycle()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/cycles)
	}
	t.Logf("%d members: %.1f allocations per cycle", members, allocs)
	return allocs
}
