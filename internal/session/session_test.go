package session_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// sworld is a world whose free-standing dapplets carry session
// services, registered in its directory.
type sworld struct {
	*world.World
	services map[string]*session.Service
}

func newSWorld(t *testing.T, opts ...netsim.Option) *sworld {
	t.Helper()
	w := &sworld{World: world.New(transport.Config{RTO: 20 * time.Millisecond}, opts...), services: make(map[string]*session.Service)}
	t.Cleanup(w.Close)
	return w
}

func (w *sworld) add(host, name, typ string, policy session.Policy) *core.Dapplet {
	d := w.Dapplet(host, typ, name)
	w.services[name] = session.Attach(d, policy)
	w.Dir.Register(context.Background(), directory.Entry{Name: name, Type: typ, Addr: d.Addr()})
	return d
}

func (w *sworld) initiator(host, name string) *session.Initiator {
	return session.NewInitiator(w.Dapplet(host, "initiator", name), w.Dir)
}

func starSpec(id string, members []string, hub string) session.Spec {
	spec := session.Spec{ID: id, Task: "test star"}
	spec.Participants = append(spec.Participants, session.Participant{Name: hub, Role: "hub"})
	for _, m := range members {
		spec.Participants = append(spec.Participants, session.Participant{Name: m, Role: "member"})
		spec.Links = append(spec.Links,
			session.Link{From: m, Outbox: "up", To: hub, Inbox: "requests"},
			session.Link{From: hub, Outbox: "down", To: m, Inbox: "replies"},
		)
	}
	return spec
}

func TestStarSessionSetupAndMessageFlow(t *testing.T) {
	w := newSWorld(t)
	hub := w.add("caltech", "secretary", "secretary", session.Policy{})
	m1 := w.add("rice", "herb", "calendar", session.Policy{})
	m2 := w.add("tennessee", "jack", "calendar", session.Policy{})
	ini := w.initiator("caltech", "director")

	h, err := ini.Initiate(context.Background(), starSpec("s1", []string{"herb", "jack"}, "secretary"))
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != "s1" {
		t.Fatalf("id = %q", h.ID())
	}
	if got := len(h.Participants()); got != 3 {
		t.Fatalf("participants = %d", got)
	}

	// Members are linked: member outbox "up" reaches the hub's "requests".
	if err := m1.Outbox("up").Send(&wire.Text{S: "from-herb"}); err != nil {
		t.Fatal(err)
	}
	msg, err := hub.Inbox("requests").ReceiveContext(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if msg.(*wire.Text).S != "from-herb" {
		t.Fatalf("hub got %v", msg)
	}

	// Hub multicast reaches both members.
	if err := hub.Outbox("down").Send(&wire.Text{S: "proposal"}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*core.Dapplet{m1, m2} {
		got, err := m.Inbox("replies").ReceiveContext(waitCtx(t))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got.(*wire.Text).S != "proposal" {
			t.Fatalf("%s got %v", m.Name(), got)
		}
	}

	// Memberships are visible, with roster and roles.
	mem, ok := w.services["herb"].Membership("s1")
	if !ok {
		t.Fatal("herb has no membership")
	}
	if mem.Role != "member" || len(mem.Roster) != 3 {
		t.Fatalf("membership = %+v", mem)
	}
	if hubP, ok := mem.Peer("hub"); !ok || hubP.Name != "secretary" {
		t.Fatalf("peer lookup = %+v %v", hubP, ok)
	}
	if peers := mem.Peers("member"); len(peers) != 2 {
		t.Fatalf("members in roster = %d", len(peers))
	}

	// Session tags ride on application messages.
	if err := m2.Outbox("up").Send(&wire.Text{S: "tagged"}); err != nil {
		t.Fatal(err)
	}
	env, err := hub.Inbox("requests").ReceiveEnvelopeContext(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if env.Session != "s1" {
		t.Fatalf("session tag = %q", env.Session)
	}
}

// TestACLRejection pins the failure contract of the one-phase set-up:
// while one participant rejects by ACL, another accepts and links itself
// up, and the initiator's terminate undoes all of it — no membership,
// state access, binding or durable record survives, so a restore after a
// crash brings nothing back. The ACL judges the invitation as the
// initiator wrote it for that participant.
func TestACLRejection(t *testing.T) {
	w := newSWorld(t)
	open := w.add("h1", "open", "t", session.Policy{})
	judged := make(chan session.Invitation, 1)
	w.add("h2", "closed", "t", session.Policy{
		ACL: func(from netsim.Addr, inv session.Invitation) bool {
			select {
			case judged <- inv:
			default: // a retried invite
			}
			return false
		},
	})
	ini := w.initiator("h1", "director")
	spec := session.Spec{
		ID:   "acl-test",
		Task: "judge me",
		Participants: []session.Participant{
			{Name: "open", Role: "a", Access: state.AccessSet{Write: []string{"v"}}},
			{Name: "closed", Role: "b", Access: state.AccessSet{Read: []string{"v"}}},
		},
		Links: []session.Link{{From: "open", Outbox: "out", To: "closed", Inbox: "in"}},
	}
	_, err := ini.Initiate(context.Background(), spec)
	var rej *session.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectedError", err)
	}
	if len(rej.Rejections) != 1 || rej.Rejections[0].Name != "closed" ||
		!strings.Contains(rej.Rejections[0].Reason, "access control list") {
		t.Fatalf("rejections = %+v", rej.Rejections)
	}
	inv := <-judged
	if inv.SessionID != "acl-test" || inv.Task != "judge me" || inv.Role != "b" ||
		!slices.Equal(inv.Access.Read, []string{"v"}) || inv.Size != 2 || len(inv.Roster) != 2 {
		t.Fatalf("the ACL judged %+v", inv)
	}
	// The accepted participant linked itself up before it answered; the
	// terminate the initiator casts when it gives up undoes that.
	for deadline := time.Now().Add(5 * time.Second); len(w.services["open"].Sessions()) != 0 ||
		len(open.Store().LiveSessions()) != 0 || len(open.Outbox("out").Destinations()) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the abort left open in %v, holding %v, with %d bindings", w.services["open"].Sessions(),
				open.Store().LiveSessions(), len(open.Outbox("out").Destinations()))
		}
	}
	for _, name := range open.Store().Names() {
		if strings.HasPrefix(name, "@session:") { // the durable membership record
			t.Fatalf("durable record %q survived the abort", name)
		}
	}
	if restored, err := w.services["open"].RestoreSessions(); err != nil || len(restored) != 0 {
		t.Fatalf("RestoreSessions = %v, %v; want nothing", restored, err)
	}
}

func TestInterferenceRejection(t *testing.T) {
	w := newSWorld(t)
	w.add("h", "shared", "t", session.Policy{})
	w.add("h", "other", "t", session.Policy{})
	ini := w.initiator("h", "director")

	acc := state.AccessSet{Read: []string{"mon"}, Write: []string{"mon"}}
	s1 := session.Spec{ID: "first", Participants: []session.Participant{{Name: "shared", Role: "x", Access: acc}}}
	if _, err := ini.Initiate(context.Background(), s1); err != nil {
		t.Fatal(err)
	}

	// A second session writing the same variable must be rejected.
	s2 := session.Spec{ID: "second", Participants: []session.Participant{
		{Name: "shared", Role: "x", Access: state.AccessSet{Write: []string{"mon"}}},
	}}
	_, err := ini.Initiate(context.Background(), s2)
	var rej *session.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectedError", err)
	}

	// A session over disjoint state proceeds concurrently.
	s3 := session.Spec{ID: "third", Participants: []session.Participant{
		{Name: "shared", Role: "x", Access: state.AccessSet{Write: []string{"doc"}}},
		{Name: "other", Role: "y"},
	}}
	if _, err := ini.Initiate(context.Background(), s3); err != nil {
		t.Fatalf("disjoint session rejected: %v", err)
	}
	if got := w.services["shared"].Sessions(); len(got) != 2 {
		t.Fatalf("shared sessions = %v", got)
	}
}

// TestConcurrentInitiatorsGetTheirOwnReplies runs two initiators at once
// over overlapping members, a tree session after a tree session each.
// A member answers every invite and terminate from one reply of its
// service's, and an initiator reads every reply of a round into one, so
// a reply read or sent after the next was written would carry another
// session's answer. One member's ACL rejects the second initiator's
// sessions: each of its Initiates must report exactly that rejection,
// each of the first's none, and every membership the first sets up must
// name its own session.
func TestConcurrentInitiatorsGetTheirOwnReplies(t *testing.T) {
	w := newSWorld(t)
	names := []string{"m0", "m1", "m2", "m3", "m4", "m5"}
	for i, name := range names {
		var policy session.Policy
		if name == "m3" {
			policy.ACL = func(_ netsim.Addr, inv session.Invitation) bool { return inv.Task != "b" }
		}
		w.add(fmt.Sprintf("h%d", i%3), name, "t", policy)
	}
	ctx := waitCtx(t)
	const rounds = 15
	// run has initiator task set up and end rounds sessions over
	// members, one at a time, and returns the first thing that was
	// wrong.
	run := func(task string, members []string) error {
		ini := w.initiator("h0", "director-"+task)
		for k := range rounds {
			spec := treeSpec(fmt.Sprintf("%s-%02d", task, k), members, 2)
			// Each initiator's sessions bind outboxes of their own: a
			// member in both carries one session of each at once.
			spec.Task, spec.Tree.Outbox, spec.Tree.Inbox = task, "bcast-"+task, "news-"+task
			h, err := ini.Initiate(ctx, spec)
			if task == "b" {
				var rej *session.RejectedError
				if !errors.As(err, &rej) || rej.SessionID != spec.ID || len(rej.Rejections) != 1 ||
					rej.Rejections[0].Name != "m3" || !strings.Contains(rej.Rejections[0].Reason, "access control list") {
					return fmt.Errorf("%s: Initiate = %v, want m3's rejection alone", spec.ID, err)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("%s: %w", spec.ID, err)
			}
			for _, name := range members {
				if mem, ok := w.services[name].Membership(spec.ID); !ok || mem.ID != spec.ID || mem.Task != task {
					return fmt.Errorf("%s: %s holds %+v", spec.ID, name, mem)
				}
			}
			if err := h.Terminate(ctx); err != nil {
				return fmt.Errorf("%s: Terminate: %w", spec.ID, err)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for task, members := range map[string][]string{"a": names[:4], "b": names[2:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- run(task, members)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	// The second initiator's aborts are one-way: wait for the last.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var left []string
		for _, name := range names {
			left = append(left, w.services[name].Sessions()...)
		}
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions left linked: %v", left)
		}
	}
}

func TestTerminateUnlinksAndReleases(t *testing.T) {
	w := newSWorld(t)
	hub := w.add("h1", "hub", "t", session.Policy{})
	w.add("h2", "leaf", "t", session.Policy{})
	ini := w.initiator("h1", "director")
	spec := session.Spec{
		ID: "term-test",
		Participants: []session.Participant{
			{Name: "hub", Role: "hub", Access: state.AccessSet{Write: []string{"v"}}},
			{Name: "leaf", Role: "leaf"},
		},
		Links: []session.Link{{From: "hub", Outbox: "out", To: "leaf", Inbox: "in"}},
	}
	h, err := ini.Initiate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(hub.Outbox("out").Destinations()); n != 1 {
		t.Fatalf("hub bindings = %d", n)
	}
	if got := w.services["leaf"].Sessions(); !slices.Equal(got, []string{"term-test"}) {
		t.Fatalf("leaf sessions = %v", got)
	}
	if err := h.Terminate(context.Background()); err != nil {
		t.Fatal(err)
	}
	// "When a session terminates, component dapplets unlink themselves."
	if n := len(hub.Outbox("out").Destinations()); n != 0 {
		t.Fatalf("bindings survived terminate: %d", n)
	}
	if got := hub.Store().LiveSessions(); len(got) != 0 {
		t.Fatalf("state access survived terminate: %v", got)
	}
	// Terminate waits for every participant's ack: the leaf has unlinked.
	if got := w.services["leaf"].Sessions(); len(got) != 0 {
		t.Fatalf("leaf still in %v after terminate", got)
	}
	// Terminate is idempotent.
	if err := h.Terminate(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestInitiateTimeoutWhenParticipantSilent(t *testing.T) {
	w := newSWorld(t)
	// A dapplet with no session service attached: invites dead-letter.
	mute := w.Dapplet("h", "t", "mute")
	w.Dir.Register(context.Background(), directory.Entry{Name: "mute", Type: "t", Addr: mute.Addr()})

	ini := w.initiator("h", "director")
	tctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := ini.Initiate(tctx, session.Spec{
		Participants: []session.Participant{{Name: "mute", Role: "x"}},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestInitiateUnknownParticipant(t *testing.T) {
	w := newSWorld(t)
	ini := w.initiator("h", "director")
	_, err := ini.Initiate(context.Background(), session.Spec{
		Participants: []session.Participant{{Name: "ghost", Role: "x"}},
	})
	if err == nil {
		t.Fatal("unknown participant accepted")
	}
}

func TestInitiateBadLinks(t *testing.T) {
	w := newSWorld(t)
	w.add("h", "real", "t", session.Policy{})
	ini := w.initiator("h", "director")
	_, err := ini.Initiate(context.Background(), session.Spec{
		Participants: []session.Participant{{Name: "real", Role: "x"}},
		Links:        []session.Link{{From: "real", Outbox: "o", To: "phantom", Inbox: "i"}},
	})
	if err == nil {
		t.Fatal("link to unknown participant accepted")
	}
	_, err = ini.Initiate(context.Background(), session.Spec{
		Participants: []session.Participant{
			{Name: "real", Role: "x"}, {Name: "real", Role: "y"},
		},
	})
	if err == nil {
		t.Fatal("duplicate participant accepted")
	}
}

func TestGrowAddsParticipantAndLinks(t *testing.T) {
	w := newSWorld(t)
	hub := w.add("h1", "hub", "t", session.Policy{})
	w.add("h2", "m1", "t", session.Policy{})
	m2 := w.add("h3", "m2", "t", session.Policy{})
	ini := w.initiator("h1", "director")

	h, err := ini.Initiate(context.Background(), starSpec("grow-test", []string{"m1"}, "hub"))
	if err != nil {
		t.Fatal(err)
	}
	// Grow: m2 joins with links in both directions.
	err = h.Grow(context.Background(), session.Participant{Name: "m2", Role: "member"}, []session.Link{
		{From: "m2", Outbox: "up", To: "hub", Inbox: "requests"},
		{From: "hub", Outbox: "down", To: "m2", Inbox: "replies"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Participants()); got != 3 {
		t.Fatalf("participants after grow = %d", got)
	}

	// New member can reach the hub.
	if err := m2.Outbox("up").Send(&wire.Text{S: "new-blood"}); err != nil {
		t.Fatal(err)
	}
	got, err := hub.Inbox("requests").ReceiveContext(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.(*wire.Text).S != "new-blood" {
		t.Fatalf("hub got %v", got)
	}
	// Hub multicast now reaches m2 as well.
	if n := len(hub.Outbox("down").Destinations()); n != 2 {
		t.Fatalf("hub down bindings = %d, want 2", n)
	}
	// Existing members' rosters were updated.
	mem, _ := w.services["m1"].Membership("grow-test")
	if len(mem.Roster) != 3 {
		t.Fatalf("m1 roster = %d entries", len(mem.Roster))
	}
	// Duplicate grow rejected.
	if err := h.Grow(context.Background(), session.Participant{Name: "m2", Role: "member"}, nil); err == nil {
		t.Fatal("duplicate grow accepted")
	}
}

func TestShrinkRemovesParticipant(t *testing.T) {
	w := newSWorld(t)
	hub := w.add("h1", "hub", "t", session.Policy{})
	m1 := w.add("h2", "m1", "t", session.Policy{})
	w.add("h3", "m2", "t", session.Policy{})
	ini := w.initiator("h1", "director")
	h, err := ini.Initiate(context.Background(), starSpec("shrink-test", []string{"m1", "m2"}, "hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Shrink(context.Background(), "m1"); err != nil {
		t.Fatal(err)
	}
	if got := len(h.Participants()); got != 2 {
		t.Fatalf("participants after shrink = %d", got)
	}
	// Hub no longer multicasts to m1.
	if n := len(hub.Outbox("down").Destinations()); n != 1 {
		t.Fatalf("hub down bindings = %d, want 1", n)
	}
	// m1 fully unlinked and released.
	if n := len(m1.Outbox("up").Destinations()); n != 0 {
		t.Fatalf("victim bindings = %d, want 0", n)
	}
	if got := w.services["m1"].Sessions(); len(got) != 0 {
		t.Fatalf("victim still member of %v", got)
	}
	// Shrinking a non-member fails.
	if err := h.Shrink(context.Background(), "m1"); err == nil {
		t.Fatal("double shrink accepted")
	}
}

func TestRingTopologySession(t *testing.T) {
	// §3.1: "in a distributed card game session, a player dapplet may be
	// linked to its predecessor and successor player dapplets".
	w := newSWorld(t)
	names := []string{"p0", "p1", "p2", "p3"}
	players := make([]*core.Dapplet, len(names))
	for i, n := range names {
		players[i] = w.add("host"+n, n, "player", session.Policy{})
	}
	spec := session.Spec{ID: "ring", Task: "card game"}
	for i, n := range names {
		spec.Participants = append(spec.Participants, session.Participant{Name: n, Role: "player"})
		next := names[(i+1)%len(names)]
		spec.Links = append(spec.Links, session.Link{From: n, Outbox: "succ", To: next, Inbox: "pred"})
	}
	ini := w.initiator("hub", "dealer")
	if _, err := ini.Initiate(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// Pass a token all the way around the ring.
	if err := players[0].Outbox("succ").Send(&wire.Text{S: "token"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= len(players); i++ {
		p := players[i%len(players)]
		got, err := p.Inbox("pred").ReceiveContext(waitCtx(t))
		if err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		if got.(*wire.Text).S != "token" {
			t.Fatalf("hop %d got %v", i, got)
		}
		if i < len(players) {
			if err := p.Outbox("succ").Send(got.(*wire.Text)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSessionOverWANWithLoss(t *testing.T) {
	w := newSWorld(t, netsim.WithSeed(21))
	w.Net.SetLink("caltech", "rice", netsim.LinkParams{Loss: 0.2})
	w.add("caltech", "hub", "t", session.Policy{})
	w.add("rice", "remote", "t", session.Policy{})
	ini := w.initiator("caltech", "director")
	h, err := ini.Initiate(context.Background(), starSpec("lossy", []string{"remote"}, "hub"))
	if err != nil {
		t.Fatalf("session setup under 20%% loss failed: %v", err)
	}
	if err := h.Terminate(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestReincarnateAfterCrashRestart drives the full recovery path: a hub
// dapplet crashes mid-session, restarts at a new address with its store
// intact, restores its membership locally, and the initiator relinks the
// survivors to the new incarnation.
func TestReincarnateAfterCrashRestart(t *testing.T) {
	w := newSWorld(t, netsim.WithSeed(5))
	var mu sync.Mutex
	services := make(map[string]*session.Service)
	w.RT.Registry().Register("node", core.Factory(func() core.Behavior {
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
	for host, name := range map[string]string{"hhub": "hub", "h1": "m1"} {
		if _, err := w.Launch(context.Background(), host, "node", name); err != nil {
			t.Fatal(err)
		}
	}
	ini := w.initiator("hq", "director")

	spec := session.Spec{
		ID: "recov",
		Participants: []session.Participant{
			{Name: "hub", Role: "hub"},
			{Name: "m1", Role: "member"},
		},
		Links: []session.Link{
			{From: "m1", Outbox: "up", To: "hub", Inbox: "requests"},
			{From: "hub", Outbox: "down", To: "m1", Inbox: "replies"},
			// A self-link: must be re-aimed at the new incarnation too.
			{From: "hub", Outbox: "loop", To: "hub", Inbox: "self"},
		},
	}
	h, err := ini.Initiate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	send := func(name, outbox, text string) {
		t.Helper()
		d, ok := w.RT.Dapplet(name)
		if !ok {
			t.Fatalf("dapplet %s gone", name)
		}
		if err := d.Outbox(outbox).Send(&wire.Text{S: text}); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(name, inbox, want string) {
		t.Helper()
		d, ok := w.RT.Dapplet(name)
		if !ok {
			t.Fatalf("dapplet %s gone", name)
		}
		m, err := d.Inbox(inbox).ReceiveContext(waitCtx(t))
		if err != nil {
			t.Fatalf("recv %s/%s: %v", name, inbox, err)
		}
		if got := m.(*wire.Text).S; got != want {
			t.Fatalf("recv %s/%s = %q, want %q", name, inbox, got, want)
		}
	}
	send("m1", "up", "before")
	recv("hub", "requests", "before")

	if err := w.RT.Crash("hub"); err != nil {
		t.Fatal(err)
	}
	hub2, err := w.RT.Restart("hub")
	if err != nil {
		t.Fatal(err)
	}
	// The behaviour restored the membership from the surviving store.
	mu.Lock()
	svc := services["hub"]
	mu.Unlock()
	if mem, ok := svc.Membership("recov"); !ok {
		t.Fatal("membership not restored from store")
	} else if mem.Role != "hub" || len(mem.Roster) != 2 {
		t.Fatalf("restored membership corrupt: role=%q roster=%d", mem.Role, len(mem.Roster))
	}

	if err := h.ReincarnateAt(context.Background(), "hub", hub2.Addr()); err != nil {
		t.Fatal(err)
	}
	// The survivor's channel into the hub now reaches the new
	// incarnation, and the restored hub's own binding still works.
	send("m1", "up", "after")
	recv("hub", "requests", "after")
	send("hub", "down", "from-new-hub")
	recv("m1", "replies", "from-new-hub")
	send("hub", "loop", "note-to-self")
	recv("hub", "self", "note-to-self")

	// Teardown still works end to end and clears the durable record.
	if err := h.Terminate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := hub2.Store().LiveSessions(); len(got) != 0 {
		t.Fatalf("live sessions after terminate: %v", got)
	}
}

// TestPeerDownVerdicts exercises the session-side verdict
// plumbing a failure detector drives through MarkPeerDown/MarkPeerUp.
func TestPeerDownVerdicts(t *testing.T) {
	w := newSWorld(t)
	w.add("caltech", "secretary", "secretary", session.Policy{})
	w.add("rice", "herb", "calendar", session.Policy{})
	w.add("tennessee", "jack", "calendar", session.Policy{})
	ini := w.initiator("caltech", "director")
	if _, err := ini.Initiate(context.Background(), starSpec("s-down", []string{"herb", "jack"}, "secretary")); err != nil {
		t.Fatal(err)
	}
	svc := w.services["secretary"]
	mem, ok := svc.Membership("s-down")
	if !ok {
		t.Fatal("no membership")
	}
	if mem.PeerDown("herb") || mem.PeerDown("jack") {
		t.Fatal("a member is down before any verdict")
	}
	svc.MarkPeerDown("herb")
	if !mem.PeerDown("herb") || mem.PeerDown("jack") {
		t.Fatalf("after herb's Down verdict: herb down %v, jack down %v; want true, false", mem.PeerDown("herb"), mem.PeerDown("jack"))
	}
	svc.MarkPeerDown("stranger") // not on the roster: ignored
	if mem.PeerDown("stranger") {
		t.Fatal("non-member acquired a down mark")
	}
	svc.MarkPeerUp("herb")
	if mem.PeerDown("herb") {
		t.Fatal("herb still down after recovery")
	}
}

// waitCtx bounds one receive in these tests.
func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}
