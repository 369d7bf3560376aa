package session_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/wire"
)

// treeSpec builds a broadcast spec: every member is both a potential
// origin (outbox "bcast") and a listener (inbox "news"), with no flat
// links — all application traffic rides the relay tree.
func treeSpec(id string, names []string, fanout int) session.Spec {
	spec := session.Spec{
		ID:   id,
		Task: "tree broadcast",
		Tree: &session.TreeSpec{Outbox: "bcast", Inbox: "news", Fanout: fanout},
	}
	for _, n := range names {
		spec.Participants = append(spec.Participants, session.Participant{Name: n, Role: "member"})
	}
	return spec
}

// recvWithin receives one message within d via the context-first API.
func recvWithin(in *core.Inbox, d time.Duration) (wire.Msg, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return in.ReceiveContext(ctx)
}

// recvN drains n texts from an inbox in order.
func recvN(t *testing.T, in *core.Inbox, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for len(out) < n {
		m, err := recvWithin(in, 5*time.Second)
		if err != nil {
			t.Fatalf("after %d of %d: %v", len(out), n, err)
		}
		out = append(out, m.(*wire.Text).S)
	}
	return out
}

// TestTreeSessionBroadcast initiates a 9-member tree session and checks
// a broadcast from one member reaches all eight others, in order, via
// Outbox.Send on the tree-bound outbox.
func TestTreeSessionBroadcast(t *testing.T) {
	w := newSWorld(t)
	names := make([]string, 9)
	dapplets := make([]*core.Dapplet, 9)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
		dapplets[i] = w.add(fmt.Sprintf("site%d", i), names[i], "member", session.Policy{})
	}
	ini := w.initiator("site0", "director")
	h, err := ini.Initiate(context.Background(), treeSpec("tree-1", names, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tr, epoch := h.Tree(); tr == nil || epoch != 1 {
		t.Fatalf("handle tree = %v epoch %d", tr, epoch)
	}

	// Every member's session service bound the tree when it accepted.
	for _, n := range names {
		mem, ok := w.services[n].Membership("tree-1")
		if !ok {
			t.Fatalf("%s has no membership", n)
		}
		if tr, epoch := mem.Tree(); tr == nil || epoch != 1 {
			t.Fatalf("%s tree = %v epoch %d", n, tr, epoch)
		}
	}

	out := dapplets[0].Outbox("bcast")
	const msgs = 10
	for i := 0; i < msgs; i++ {
		if err := out.Send(&wire.Text{S: fmt.Sprintf("n%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Flat fan-out would have bound destinations on the outbox; the tree
	// leaves the binding list empty.
	if n := len(out.Destinations()); n != 0 {
		t.Fatalf("tree outbox has %d flat destinations", n)
	}
	for i := 1; i < len(dapplets); i++ {
		got := recvN(t, dapplets[i].Inbox("news"), msgs)
		for j, s := range got {
			want := fmt.Sprintf("n%02d", j)
			if s != want {
				t.Fatalf("%s position %d: got %q, want %q", names[i], j, s, want)
			}
		}
	}
}

// TestTreeSessionGrowAndShrink grows a tree session by one member
// (epoch 2), broadcasts, shrinks it back out (epoch 3), and broadcasts
// again.
func TestTreeSessionGrowAndShrink(t *testing.T) {
	w := newSWorld(t)
	names := []string{"alice", "bob", "carol"}
	ds := make(map[string]*core.Dapplet)
	for i, n := range names {
		ds[n] = w.add(fmt.Sprintf("site%d", i), n, "member", session.Policy{})
	}
	newcomer := w.add("site9", "dave", "member", session.Policy{})
	ini := w.initiator("site0", "director")
	h, err := ini.Initiate(context.Background(), treeSpec("tree-2", names, 2))
	if err != nil {
		t.Fatal(err)
	}

	if err := h.Grow(context.Background(), session.Participant{Name: "dave", Role: "member"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, epoch := h.Tree(); epoch != 2 {
		t.Fatalf("epoch after grow = %d", epoch)
	}
	if err := ds["alice"].Outbox("bcast").Send(&wire.Text{S: "welcome"}); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, newcomer.Inbox("news"), 1)[0]; got != "welcome" {
		t.Fatalf("newcomer got %q", got)
	}
	for _, n := range []string{"bob", "carol"} {
		if got := recvN(t, ds[n].Inbox("news"), 1)[0]; got != "welcome" {
			t.Fatalf("%s got %q", n, got)
		}
	}

	if err := h.Shrink(context.Background(), "dave"); err != nil {
		t.Fatal(err)
	}
	if _, epoch := h.Tree(); epoch != 3 {
		t.Fatalf("epoch after shrink = %d", epoch)
	}
	if err := ds["alice"].Outbox("bcast").Send(&wire.Text{S: "bye"}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"bob", "carol"} {
		if got := recvN(t, ds[n].Inbox("news"), 1)[0]; got != "bye" {
			t.Fatalf("%s got %q", n, got)
		}
	}
	// The departed member's tree is unbound: its outbox no longer
	// multicasts and its relay dropped the session.
	if err := newcomer.Outbox("bcast").Send(&wire.Text{S: "ghost"}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(ds["bob"].Inbox("news"), 100*time.Millisecond); err == nil {
		t.Fatal("departed member still reaches the tree")
	}
}

// TestTreeRepairAfterRelayDeath kills an interior relay outright (no
// reincarnation) and checks RepairTree re-parents the orphaned subtree
// and redrives the frames the dead relay swallowed: the downstream
// member must deliver every message exactly once, in order.
func TestTreeRepairAfterRelayDeath(t *testing.T) {
	w := newSWorld(t)
	names := make([]string, 5)
	dapplets := make([]*core.Dapplet, 5)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
		dapplets[i] = w.add(fmt.Sprintf("site%d", i), names[i], "member", session.Policy{})
	}
	ini := w.initiator("site0", "director")
	// Fanout 1 chains m00→m01→m02→m03→m04 (roster is already sorted), so
	// killing m02 severs m03 and m04.
	h, err := ini.Initiate(context.Background(), treeSpec("tree-3", names, 1))
	if err != nil {
		t.Fatal(err)
	}

	out := dapplets[0].Outbox("bcast")
	if err := out.Send(&wire.Text{S: "one"}); err != nil {
		t.Fatal(err)
	}
	tail := dapplets[4].Inbox("news")
	if got := recvN(t, tail, 1)[0]; got != "one" {
		t.Fatalf("got %q", got)
	}

	dapplets[2].Stop() // the interior relay dies
	if err := out.Send(&wire.Text{S: "two"}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(tail, 150*time.Millisecond); err == nil {
		t.Fatal("frame crossed a dead relay")
	}

	if err := h.RepairTree(context.Background(), "m02"); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, tail, 1)[0]; got != "two" {
		t.Fatalf("after repair: got %q", got)
	}
	// "one" rode the redrive too; dedup must drop it.
	if _, err := recvWithin(tail, 150*time.Millisecond); err == nil {
		t.Fatal("redrive re-delivered an already-delivered frame")
	}
	// Continued traffic flows on the repaired tree.
	if err := out.Send(&wire.Text{S: "three"}); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, tail, 1)[0]; got != "three" {
		t.Fatalf("got %q", got)
	}
}

// TestTreeRestoreAfterCrash checks a reincarnated participant rebinds
// its tree from the persisted membership and, after the initiator's
// ReincarnateAt relink (epoch bump + redrive), receives the frames it
// missed plus new traffic.
func TestTreeRestoreAfterCrash(t *testing.T) {
	w := newSWorld(t)
	var mu sync.Mutex
	services := make(map[string]*session.Service)
	w.RT.Registry().Register("member", core.Factory(func() core.Behavior {
		return core.BehaviorFunc(func(d *core.Dapplet) error {
			svc := session.Attach(d, session.Policy{})
			if _, err := svc.RestoreSessions(); err != nil {
				return err
			}
			mu.Lock()
			services[d.Name()] = svc
			mu.Unlock()
			return nil
		})
	}))

	// Leaf m03 runs under the runtime so it can crash and restart with
	// its store intact.
	names := []string{"m00", "m01", "m02", "m03"}
	dapplets := make([]*core.Dapplet, 3)
	for i := 0; i < 3; i++ {
		dapplets[i] = w.add(fmt.Sprintf("site%d", i), names[i], "member", session.Policy{})
	}
	victim, err := w.Launch(context.Background(), "site3", "member", "m03")
	if err != nil {
		t.Fatal(err)
	}

	ini := w.initiator("site0", "director")
	h, err := ini.Initiate(context.Background(), treeSpec("tree-4", names, 2))
	if err != nil {
		t.Fatal(err)
	}

	out := dapplets[0].Outbox("bcast")
	if err := out.Send(&wire.Text{S: "before"}); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, victim.Inbox("news"), 1)[0]; got != "before" {
		t.Fatalf("got %q", got)
	}

	if err := w.RT.Crash("m03"); err != nil {
		t.Fatal(err)
	}
	if err := out.Send(&wire.Text{S: "missed"}); err != nil {
		t.Fatal(err)
	}

	revived, err := w.RT.Restart("m03")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	svc2 := services["m03"]
	mu.Unlock()
	// The factory already ran RestoreSessions, which rebinds the tree
	// from the persisted membership record.
	if !svc2.Relay().Bound("tree-4") {
		t.Fatal("restore did not rebind the tree")
	}
	if err := h.ReincarnateAt(context.Background(), "m03", revived.Addr()); err != nil {
		t.Fatal(err)
	}
	// The repair relink redrives the origin's replay ring, so the frame
	// the dead incarnation never saw must arrive exactly once. The
	// pre-crash "before" MAY be re-delivered first (the reincarnation's
	// dedup state died with it, and delivery across incarnations is
	// at-least-once): if the in-flight original "missed" beats the
	// redrive, it fixes the new baseline past "before"; if the redrive
	// wins, "before" is re-delivered ahead of it.
	got := recvN(t, revived.Inbox("news"), 1)
	if got[0] == "before" {
		got = recvN(t, revived.Inbox("news"), 1)
	}
	if got[0] != "missed" {
		t.Fatalf("after reincarnate: got %q", got)
	}
	if err := out.Send(&wire.Text{S: "after"}); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, revived.Inbox("news"), 1)[0]; got != "after" {
		t.Fatalf("got %q", got)
	}
}
