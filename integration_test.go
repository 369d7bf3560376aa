package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/state"
	"repro/internal/tokens"
	"repro/internal/wire"
)

// TestFullStackCalendarOverLossyWAN drives the flagship scenario through
// every layer at once: a hierarchical calendar session across lossy WAN
// links, scheduling twice (persistent state across sessions), with token
// and interference services live on the same dapplets.
func TestFullStackCalendarOverLossyWAN(t *testing.T) {
	w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
		Sites: 3, MembersPerSite: 2, Hierarchical: true,
		Slots: 48, BusyProb: 0.4, CommonSlot: 30, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Inject loss on every inter-site link; the reliable layer must mask it.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			w.Net.SetLoss(fmt.Sprintf("site%d", i), fmt.Sprintf("site%d", j), 0.10)
		}
	}

	r1, err := w.Scheduler.Schedule(context.Background(), 0, 48, 16)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w.Scheduler.Schedule(context.Background(), 0, 48, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Slot == r2.Slot {
		t.Fatalf("double booking at slot %d", r1.Slot)
	}
	for name, m := range w.Members {
		if !m.Busy(r1.Slot) || !m.Busy(r2.Slot) {
			t.Fatalf("%s inconsistent after two sessions", name)
		}
	}
}

// TestSessionGrowIntoRunningCalendar grows a live scheduling session by a
// new calendar dapplet and verifies the next scheduling round includes it
// (its busy slots constrain the outcome).
func TestSessionGrowIntoRunningCalendar(t *testing.T) {
	w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
		Sites: 2, MembersPerSite: 1, Hierarchical: false,
		Slots: 32, BusyProb: 0, CommonSlot: -1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// The latecomer is busy for the whole first week: slots 0..7.
	latecomer := calendar.NewMember(32, []int{0, 1, 2, 3, 4, 5, 6, 7})
	w.RT.Registry().Register("late-calendar", func() core.Behavior { return latecomer })
	if err := w.RT.Install("site0", "late-calendar"); err != nil {
		t.Fatal(err)
	}
	d, err := w.RT.Launch("site0", "late-calendar", "latecomer")
	if err != nil {
		t.Fatal(err)
	}
	session.Attach(d, session.Policy{})
	w.Dir.Register(context.Background(), directory.Entry{Name: "latecomer", Type: "late-calendar", Addr: d.Addr()})

	err = w.Handle.Grow(
		context.Background(),
		session.Participant{Name: "latecomer", Role: "member",
			Access: state.AccessSet{Read: []string{calendar.BusyVar}, Write: []string{calendar.BusyVar}}},
		[]session.Link{
			{From: "coordinator", Outbox: calendar.HeadDown, To: "latecomer", Inbox: calendar.MemberInbox},
			{From: "latecomer", Outbox: calendar.MemberUp, To: "coordinator", Inbox: calendar.HeadFromSecs},
		})
	if err != nil {
		t.Fatal(err)
	}

	res, err := w.Scheduler.Schedule(context.Background(), 0, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot < 8 {
		t.Fatalf("scheduler ignored the latecomer's busy week: slot %d", res.Slot)
	}
	if !latecomer.Busy(res.Slot) {
		t.Fatal("latecomer did not book the slot")
	}
}

// TestSnapshotOfCalendarSession checkpoints the member dapplets of a live
// calendar world and validates the cut.
func TestSnapshotOfCalendarSession(t *testing.T) {
	w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
		Sites: 2, MembersPerSite: 2, Hierarchical: false,
		Slots: 32, BusyProb: 0.3, CommonSlot: 20, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var members []snapshot.Member
	var services []*snapshot.Service
	for _, name := range w.MemberNames {
		d, ok := w.RT.Dapplet(name)
		if !ok {
			t.Fatal("missing dapplet")
		}
		name := name
		services = append(services, snapshot.Attach(d, func() []byte { return []byte(name) }))
		members = append(members, snapshot.Member{Name: name, Addr: d.Addr()})
	}
	for i, svc := range services {
		peers := make([]snapshot.Member, 0, len(members)-1)
		for j, m := range members {
			if j != i {
				peers = append(peers, m)
			}
		}
		svc.SetPeers(peers)
	}
	coord := snapshot.NewCoordinator(w.Coordinator, members)
	g, err := coord.SnapshotClock(context.Background(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if len(g.States) != len(w.MemberNames) {
		t.Fatalf("states = %d", len(g.States))
	}
}

// TestTokensGuardSharedCalendarVariable combines tokens with sessions: a
// member's busy-calendar variable is guarded by a token; two directors
// contend for it.
func TestTokensGuardSharedCalendarVariable(t *testing.T) {
	ctx := context.Background()
	w, err := scenario.BuildCalendar(ctx, scenario.CalendarOptions{
		Sites: 1, MembersPerSite: 2, Hierarchical: false,
		Slots: 16, BusyProb: 0, CommonSlot: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	alloc := tokens.Serve(w.Coordinator, tokens.Bag{"calendar-write": 1})
	m1, _ := w.RT.Dapplet(w.MemberNames[0])
	m2, _ := w.RT.Dapplet(w.MemberNames[1])
	t1 := tokens.NewManager(m1, alloc.Ref())
	t2 := tokens.NewManager(m2, alloc.Ref())

	if err := t1.Request(ctx, tokens.Bag{"calendar-write": 1}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- t2.Request(ctx, tokens.Bag{"calendar-write": 1}) }()
	select {
	case <-got:
		t.Fatal("second writer acquired held token")
	case <-time.After(50 * time.Millisecond):
	}
	if err := t1.Release(tokens.Bag{"calendar-write": 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if !alloc.ConservationHolds() {
		t.Fatal("conservation violated")
	}
}

// TestInterferingCalendarSessionsAreRejected verifies §2.2 end-to-end: a
// second scheduling session over the same calendars is rejected while the
// first is live, and admitted after termination.
func TestInterferingCalendarSessionsAreRejected(t *testing.T) {
	w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
		Sites: 1, MembersPerSite: 2, Hierarchical: false,
		Slots: 16, BusyProb: 0, CommonSlot: -1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ini := session.NewInitiator(w.Coordinator, w.Dir)
	spec := calendar.FlatSpec("second-calendar-session", "coordinator", w.MemberNames)
	_, err = ini.Initiate(context.Background(), spec)
	var rej *session.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectedError (interference)", err)
	}
	// After terminating the first session, the second is admitted.
	if err := w.Handle.Terminate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := ini.Initiate(context.Background(), calendar.FlatSpec("third-session", "coordinator", w.MemberNames)); err != nil {
		t.Fatalf("post-terminate session rejected: %v", err)
	}
}

// TestEnvelopeSessionTagsEndToEnd checks that application messages inside
// a scenario-built session carry the session id.
func TestEnvelopeSessionTagsEndToEnd(t *testing.T) {
	w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
		Sites: 1, MembersPerSite: 1, Hierarchical: false,
		Slots: 16, BusyProb: 0, CommonSlot: -1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	member, _ := w.RT.Dapplet(w.MemberNames[0])
	if err := member.Outbox(calendar.MemberUp).Send(&wire.Text{S: "tagged?"}); err != nil {
		t.Fatal(err)
	}
	env, err := w.Coordinator.Inbox(calendar.HeadFromSecs).ReceiveEnvelopeContext(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if env.Session != "calendar-session" {
		t.Fatalf("session tag = %q", env.Session)
	}
}

// TestStateAccessSetsEnforcedInSession verifies that a member's store
// enforces the declared access set during a live session.
func TestStateAccessSetsEnforcedInSession(t *testing.T) {
	w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
		Sites: 1, MembersPerSite: 1, Hierarchical: false,
		Slots: 16, BusyProb: 0, CommonSlot: -1, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	member, _ := w.RT.Dapplet(w.MemberNames[0])
	view, err := member.Store().View("calendar-session")
	if err != nil {
		t.Fatal(err)
	}
	var cal calendar.SlotSet
	if data, ok, err := view.Get(calendar.BusyVar); err != nil || !ok || cal.UnmarshalBinary(data) != nil {
		t.Fatalf("declared read failed: %v %v", ok, err)
	}
	if err := view.Set("some.other.var", []byte{1}); !errors.Is(err, state.ErrDenied) {
		t.Fatalf("out-of-set write err = %v", err)
	}
}

// waitCtx bounds one receive in these tests.
func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}
