package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/state"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/wire"
)

func dap(t *testing.T, net *netsim.Network, host, name string) *core.Dapplet {
	t.Helper()
	ep, err := net.Host(host).BindAny()
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDapplet(name, "t", transport.NewSimConn(ep),
		core.WithTransportConfig(transport.Config{RTO: 20 * time.Millisecond}))
	t.Cleanup(d.Stop)
	return d
}

// TestInitiateCancelMidHandshakeAbortsCommitted drives the cancellation
// satellite end to end: a session with one well-behaved participant and
// one that accepts its invitation but goes silent at commit time. The
// well-behaved participant commits (phase 2 landed there); the caller
// then cancels the context. Initiate must return context.Canceled, send
// aborts everywhere — tearing the session down at the participant whose
// commit already landed, bindings unlinked and state access released —
// and leak no goroutines (fenced with runtime.NumGoroutine under -race).
func TestInitiateCancelMidHandshakeAbortsCommitted(t *testing.T) {
	net := netsim.New(netsim.WithSeed(11))
	t.Cleanup(net.Close)
	dir := directory.New()

	committed := make(chan struct{}, 1)
	goodD := dap(t, net, "hg", "good")
	goodSvc := Attach(goodD, Policy{OnJoin: func(*Membership) { committed <- struct{}{} }})
	_ = dir.Register(context.Background(), directory.Entry{Name: "good", Type: "t", Addr: goodD.Addr()})

	// The sticky participant speaks just enough of the protocol to accept
	// the invitation, then elects silence on commit: the handshake can
	// only end by cancellation.
	stickyD := dap(t, net, "hs", "sticky")
	svc.Serve(stickyD, ControlInbox, svc.Handlers{
		"session.invite": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			inv := req.(*inviteMsg)
			return &inviteRepMsg{SessionID: inv.SessionID, Name: "sticky", Accepted: true}, nil
		},
		"session.commit": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return nil, svc.NoReply
		},
	})
	_ = dir.Register(context.Background(), directory.Entry{Name: "sticky", Type: "t", Addr: stickyD.Addr()})

	iniD := dap(t, net, "hq", "director")
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

	// Phase 2 landed at the well-behaved participant...
	select {
	case <-committed:
	case <-time.After(10 * time.Second):
		t.Fatal("good participant never committed")
	}
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

	// The abort reached the committed participant: membership gone,
	// bindings unlinked, state access released.
	waitFor(t, "abort tears down the committed membership", func() bool {
		return len(goodSvc.Sessions()) == 0 &&
			len(goodD.Outbox("out").Destinations()) == 0 &&
			len(goodD.Store().LiveSessions()) == 0
	})

	// No goroutine outlives the cancelled handshake.
	waitFor(t, "goroutine fence", func() bool {
		return runtime.NumGoroutine() <= before+2
	})
}

// TestGrowCancelAbortsCommittedNewcomer pins the failure-path contract
// of Grow: when the handshake dies after the newcomer's commit landed
// (here: an existing participant swallows its relink and the caller
// cancels), the newcomer must be aborted — membership gone, bindings
// unlinked, state access released — not left half-joined outside every
// roster a later Terminate would reach.
func TestGrowCancelAbortsCommittedNewcomer(t *testing.T) {
	net := netsim.New(netsim.WithSeed(12))
	t.Cleanup(net.Close)
	dir := directory.New()

	// The existing participant speaks invite/commit properly but
	// swallows relinks, so Grow's final phase can only end by
	// cancellation.
	stickyD := dap(t, net, "hs", "sticky")
	svc.Serve(stickyD, ControlInbox, svc.Handlers{
		"session.invite": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return &inviteRepMsg{SessionID: req.(*inviteMsg).SessionID, Name: "sticky", Accepted: true}, nil
		},
		"session.commit": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return &commitAckMsg{SessionID: req.(*commitMsg).SessionID, Name: "sticky"}, nil
		},
		"session.relink": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return nil, svc.NoReply
		},
	})
	_ = dir.Register(context.Background(), directory.Entry{Name: "sticky", Type: "t", Addr: stickyD.Addr()})

	joined := make(chan struct{}, 1)
	newbieD := dap(t, net, "hn", "newbie")
	newbieSvc := Attach(newbieD, Policy{OnJoin: func(*Membership) { joined <- struct{}{} }})
	_ = dir.Register(context.Background(), directory.Entry{Name: "newbie", Type: "t", Addr: newbieD.Addr()})

	ini := NewInitiator(dap(t, net, "hq", "director"), dir)
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
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("newcomer never committed")
	}
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Grow = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Grow never returned")
	}
	waitFor(t, "abort tears down the committed newcomer", func() bool {
		return len(newbieSvc.Sessions()) == 0 &&
			len(newbieD.Outbox("out").Destinations()) == 0 &&
			len(newbieD.Store().LiveSessions()) == 0
	})
	// The handle never adopted the newcomer: a retry is possible.
	if got := len(h.Participants()); got != 1 {
		t.Fatalf("roster after failed Grow = %d, want 1", got)
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
