package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/state"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// newWorld is a world whose dapplets run a 20 ms RTO, closed when t ends.
func newWorld(t *testing.T, opts ...netsim.Option) *world.World {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, opts...)
	t.Cleanup(w.Close)
	return w
}

// TestInitiateCancelMidHandshakeAbortsCommitted drives cancellation end to
// end: a session with one well-behaved participant and one that never
// answers its invitation. The well-behaved participant accepts, which
// commits it: it links itself up. The caller then cancels the context.
// Initiate must return context.Canceled, terminate the session
// everywhere — tearing it down at the participant that had linked,
// bindings unlinked and state access released — and leak no goroutines
// (fenced with runtime.NumGoroutine under -race).
func TestInitiateCancelMidHandshakeAbortsCommitted(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(11))
	dir := directory.New()

	goodD := w.Dapplet("hg", "t", "good")
	goodSvc := Attach(goodD, Policy{})
	_ = dir.Register(context.Background(), directory.Entry{Name: "good", Type: "t", Addr: goodD.Addr()})

	// The sticky participant elects silence on its invitation: the
	// handshake can only end by cancellation.
	stickyD := w.Dapplet("hs", "t", "sticky")
	svc.Serve(stickyD, ControlInbox, svc.Handlers{
		"session.invite": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return nil, svc.NoReply
		},
	})
	_ = dir.Register(context.Background(), directory.Entry{Name: "sticky", Type: "t", Addr: stickyD.Addr()})

	iniD := w.Dapplet("hq", "t", "director")
	ini := NewInitiator(iniD, dir)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := make(chan error, 1)
	go func() {
		_, err := ini.Initiate(ctx, Spec{
			ID: "cancelled",
			Participants: []Participant{
				{Name: "good", Role: "member", Access: accessSet("v")},
				{Name: "sticky", Role: "member"},
			},
			Links: []Link{{From: "good", Outbox: "out", To: "sticky", Inbox: "in"}},
		})
		res <- err
	}()

	// The well-behaved participant linked itself up...
	waitFor(t, "the good participant links", func() bool { return len(goodSvc.Sessions()) == 1 })
	// ...and the initiator is now stuck on the sticky one: cancel.
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Initiate = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Initiate never returned")
	}

	// The terminate reached the linked participant: membership gone,
	// bindings unlinked, state access released.
	waitFor(t, "abort tears down the linked membership", func() bool {
		return len(goodSvc.Sessions()) == 0 &&
			len(goodD.Outbox("out").Destinations()) == 0 &&
			len(goodD.Store().LiveSessions()) == 0
	})

	// No goroutine outlives the cancelled handshake.
	waitFor(t, "goroutine fence", func() bool {
		return runtime.NumGoroutine() <= before+2
	})
}

// TestGrowCancelAbortsCommittedNewcomer pins the failure-path contract of
// Grow: when the handshake dies after the newcomer accepted and linked
// itself up (here: an existing participant swallows its relink and the
// caller cancels), the newcomer must be terminated — membership gone,
// bindings unlinked, state access released — not left half-joined
// outside every roster a later Terminate would reach.
func TestGrowCancelAbortsCommittedNewcomer(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(12))
	dir := directory.New()

	// The existing participant accepts its invite properly but swallows
	// relinks, so Grow's final phase can only end by cancellation.
	stickyD := w.Dapplet("hs", "t", "sticky")
	svc.Serve(stickyD, ControlInbox, svc.Handlers{
		"session.invite": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return &inviteRepMsg{SessionID: req.(*inviteMsg).SessionID, Name: "sticky", Accepted: true}, nil
		},
		"session.relink": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return nil, svc.NoReply
		},
	})
	_ = dir.Register(context.Background(), directory.Entry{Name: "sticky", Type: "t", Addr: stickyD.Addr()})

	newbieD := w.Dapplet("hn", "t", "newbie")
	newbieSvc := Attach(newbieD, Policy{})
	_ = dir.Register(context.Background(), directory.Entry{Name: "newbie", Type: "t", Addr: newbieD.Addr()})

	ini := NewInitiator(w.Dapplet("hq", "t", "director"), dir)
	h, err := ini.Initiate(context.Background(), Spec{
		ID:           "grow-cancel",
		Participants: []Participant{{Name: "sticky", Role: "member"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := make(chan error, 1)
	go func() {
		res <- h.Grow(ctx, Participant{Name: "newbie", Role: "member", Access: accessSet("v")},
			[]Link{{From: "newbie", Outbox: "out", To: "sticky", Inbox: "in"}})
	}()
	waitFor(t, "the newcomer links", func() bool { return len(newbieSvc.Sessions()) == 1 })
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Grow = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Grow never returned")
	}
	waitFor(t, "abort tears down the linked newcomer", func() bool {
		return len(newbieSvc.Sessions()) == 0 &&
			len(newbieD.Outbox("out").Destinations()) == 0 &&
			len(newbieD.Store().LiveSessions()) == 0
	})
	// The handle never adopted the newcomer: a retry is possible.
	if got := len(h.Participants()); got != 1 {
		t.Fatalf("roster after failed Grow = %d, want 1", got)
	}
}

// TestSetupIsOneRoundTrip pins the one-phase set-up: Initiate puts one
// request — the invite, whose acceptance links the participant up — on
// each participant's "@session" inbox, Grow puts one on the newcomer's,
// and the wire knows no second-phase kind.
func TestSetupIsOneRoundTrip(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(13))
	dir := directory.New()
	var mu sync.Mutex
	requests := make(map[string]int)
	for i, name := range []string{"a", "b", "c", "d"} {
		d := w.Dapplet(fmt.Sprintf("h%d", i), "t", name)
		Attach(d, Policy{})
		d.OnRecv(func(env *wire.Envelope) {
			if env.To.Inbox == ControlInbox {
				mu.Lock()
				requests[name]++
				mu.Unlock()
			}
		})
		_ = dir.Register(context.Background(), directory.Entry{Name: name, Type: "t", Addr: d.Addr()})
	}
	requestsAt := func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		return requests[name]
	}

	ini := NewInitiator(w.Dapplet("hq", "t", "director"), dir)
	h, err := ini.Initiate(context.Background(), Spec{
		ID: "one-round",
		Participants: []Participant{
			{Name: "a", Role: "member"}, {Name: "b", Role: "member"}, {Name: "c", Role: "member"},
		},
		Links: []Link{
			{From: "a", Outbox: "out", To: "b", Inbox: "in"},
			{From: "b", Outbox: "out", To: "c", Inbox: "in"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if got := requestsAt(name); got != 1 {
			t.Errorf("Initiate delivered %d requests to %s's %s inbox, want 1", got, name, ControlInbox)
		}
	}

	if err := h.Grow(context.Background(), Participant{Name: "d", Role: "member"},
		[]Link{{From: "d", Outbox: "out", To: "a", Inbox: "in"}}); err != nil {
		t.Fatal(err)
	}
	if got := requestsAt("d"); got != 1 {
		t.Errorf("Grow delivered %d requests to the newcomer's %s inbox, want 1", got, ControlInbox)
	}

	for _, kind := range []string{"session.commit", "session.commit-ack", "session.abort"} {
		if wire.Registered(kind) {
			t.Errorf("wire still registers %q", kind)
		}
	}
}

// TestTerminateRetryAfterFailure checks that a Terminate which fails
// leaves the handle live: the retry must reach the participant again
// rather than report success without contacting anyone.
func TestTerminateRetryAfterFailure(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(15))
	dir := directory.New()

	// The participant swallows its first terminate and acks the rest.
	var terminates atomic.Int32
	d := w.Dapplet("hp", "t", "part")
	svc.Serve(d, ControlInbox, svc.Handlers{
		"session.invite": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return &inviteRepMsg{SessionID: req.(*inviteMsg).SessionID, Name: "part", Accepted: true}, nil
		},
		"session.terminate": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			if terminates.Add(1) == 1 {
				return nil, svc.NoReply
			}
			return &terminateAckMsg{SessionID: req.(*terminateMsg).SessionID, Name: "part"}, nil
		},
	})
	_ = dir.Register(context.Background(), directory.Entry{Name: "part", Type: "t", Addr: d.Addr()})

	ini := NewInitiator(w.Dapplet("hq", "t", "director"), dir)
	h, err := ini.Initiate(context.Background(), Spec{
		ID:           "retry",
		Participants: []Participant{{Name: "part", Role: "member"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := h.Terminate(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first Terminate = %v, want context.DeadlineExceeded", err)
	}
	if err := h.Terminate(context.Background()); err != nil {
		t.Fatalf("retried Terminate = %v", err)
	}
	if got := terminates.Load(); got != 2 {
		t.Fatalf("participant saw %d terminates, want 2", got)
	}
	// Once one has succeeded, Terminate contacts no one.
	if err := h.Terminate(context.Background()); err != nil {
		t.Fatalf("third Terminate = %v", err)
	}
	if got := terminates.Load(); got != 2 {
		t.Fatalf("participant saw %d terminates after a completed Terminate, want 2", got)
	}
}

func accessSet(vars ...string) state.AccessSet {
	return state.AccessSet{Read: vars, Write: vars}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLargeTreeMessagesFitADatagram checks that what the initiator sends
// one participant of a 4 096-member tree session — its invite, and a
// relink — is far below transport.MaxDatagram, so such a session can be
// set up over real UDP. With the roster in every message neither fitted
// past ~2 000 members.
func TestLargeTreeMessagesFitADatagram(t *testing.T) {
	const n = 4096
	roster := make([]Participant, n)
	for i := range roster {
		roster[i] = Participant{
			Name: fmt.Sprintf("participant-%05d", i),
			Addr: netsim.Addr{Host: fmt.Sprintf("host-%03d.example.org", i%512), Port: uint16(1024 + i)},
			Role: "member", Access: accessSet("calendar", "agenda"),
		}
	}
	ship := newShipment("sess-director-1", roster, &TreeSpec{Outbox: "bcast", Inbox: "news"}, 7)
	bindings := []Binding{{Outbox: "up", To: wire.InboxRef{Dapplet: roster[0].Addr, Inbox: "requests"}}}
	// Headroom for what wraps the message on the wire: the svc request
	// header, the envelope header and the transport frame header.
	const headroom = 512
	for _, p := range roster {
		for _, m := range []wire.Msg{
			ship.invite("large-group broadcast", p, bindings, []string{"replies"}),
			ship.relink(p.Name, bindings, bindings, true),
		} {
			enc, err := m.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(enc)+headroom >= transport.MaxDatagram {
				t.Fatalf("%s for %s of %d encodes to %d bytes; transport.MaxDatagram is %d",
					m.Kind(), p.Name, n, len(enc), transport.MaxDatagram)
			}
		}
	}
}
