package failure_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/wire"
)

// TestBindTreeRepairEvictsDownRelay is session.TestTreeRepairAfterRelayDeath
// with the repair left to a detector on the initiator: an interior relay
// of a chain-shaped tree dies, and BindTreeRepair, not the test, calls
// RepairTree on the Down verdict. The roster must drop the relay, and
// every survivor must deliver each broadcast sent after the crash exactly
// once, in order.
func TestBindTreeRepairEvictsDownRelay(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(7))
	dir := directory.New()
	cfg := failure.Config{Interval: 20 * time.Millisecond, Multiplier: 4}

	ini := w.Dapplet("site0", "test", "director")
	det := failure.Attach(ini, cfg)
	names := make([]string, 5)
	members := make([]*core.Dapplet, 5)
	spec := session.Spec{
		ID:   "tree-repair",
		Task: "tree broadcast",
		// Fanout 1 chains m00→m01→m02→m03→m04, so killing m02 severs m03
		// and m04.
		Tree: &session.TreeSpec{Outbox: "bcast", Inbox: "news", Fanout: 1},
	}
	for i := range members {
		names[i] = fmt.Sprintf("m%02d", i)
		d := w.Dapplet(fmt.Sprintf("site%d", i), "test", names[i])
		session.Attach(d, session.Policy{})
		if err := dir.Register(context.Background(), directory.Entry{Name: names[i], Type: "member", Addr: d.Addr()}); err != nil {
			t.Fatal(err)
		}
		failure.Attach(d, cfg).Watch(ini.Name(), ini.Addr())
		det.Watch(names[i], d.Addr())
		members[i] = d
		spec.Participants = append(spec.Participants, session.Participant{Name: names[i], Role: "member"})
	}
	h, err := session.NewInitiator(ini, dir).Initiate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	failure.BindTreeRepair(det, h)

	survivors := []*core.Dapplet{members[1], members[3], members[4]}
	out := members[0].Outbox("bcast")
	if err := out.Send(&wire.Text{S: "one"}); err != nil {
		t.Fatal(err)
	}
	for _, d := range survivors {
		expectTexts(t, d, "one")
	}

	members[2].Stop() // the interior relay dies
	if err := out.Send(&wire.Text{S: "two"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); inRoster(h, "m02"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("BindTreeRepair never evicted the dead relay m02")
		}
	}
	if err := out.Send(&wire.Text{S: "three"}); err != nil {
		t.Fatal(err)
	}
	for _, d := range survivors {
		expectTexts(t, d, "two", "three")
	}
	// The redrive re-floods "one" and "two" too; dedup must drop them.
	// One window serves every survivor.
	time.Sleep(150 * time.Millisecond)
	for _, d := range survivors {
		if m, ok := d.Inbox("news").TryReceive(); ok {
			t.Fatalf("%s delivered %q twice", d.Name(), m.(*wire.Text).S)
		}
	}
}

// expectTexts receives the given texts from d's "news" inbox, in order.
func expectTexts(t *testing.T, d *core.Dapplet, want ...string) {
	t.Helper()
	for _, w := range want {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		m, err := d.Inbox("news").ReceiveContext(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s waiting for %q: %v", d.Name(), w, err)
		}
		if got := m.(*wire.Text).S; got != w {
			t.Fatalf("%s delivered %q, want %q", d.Name(), got, w)
		}
	}
}

func inRoster(h *session.Handle, name string) bool {
	for _, p := range h.Participants() {
		if p.Name == name {
			return true
		}
	}
	return false
}
