package session_test

import (
	"fmt"
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
// timers. Sixteen members decode the same names, hosts and session id in
// every cycle, so the decoders' interned strings keep the count down.
func TestSessionSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const members = 16
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
		for _, d := range ds[1:] {
			if _, err := d.Inbox("news").ReceiveContext(ctx); err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
		}
		if err := h.Terminate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 { // warm the pools, the free lists and the decoders
		cycle()
	}
	const cycles = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / cycles
	t.Logf("%.1f allocations per cycle", allocs)
	const budget = 520 // it reads 464–491; 842–849 before decoded strings were interned
	if allocs > budget {
		t.Fatalf("one set-up, broadcast and terminate of a %d-member tree session allocates %.1f times, want <= %d", members, allocs, budget)
	}
}
