package core_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// captureConn keeps a copy of every datagram written through it.
type captureConn struct {
	transport.PacketConn
	mu   sync.Mutex
	sent [][]byte
}

func (c *captureConn) WriteTo(to netsim.Addr, p []byte) error {
	c.mu.Lock()
	c.sent = append(c.sent, bytes.Clone(p))
	c.mu.Unlock()
	return c.PacketConn.WriteTo(to, p)
}

// TestFramesCarryNoAddresses sends one outbox message, a stream of
// messages to one inbox in one session, makes one svc call and runs one
// relay broadcast between dapplets on hosts with distinctive names, and
// captures every datagram they write. No datagram may name a host: the
// receiver knows its own address, and the transport names the sender.
// Receivers must still see both addresses in the envelope. The stream
// puts its inbox name and session id on the wire once, or once more per
// retransmission: the frames after the first leave out the header they
// repeat.
func TestFramesCarryNoAddresses(t *testing.T) {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, netsim.WithSeed(5))
	t.Cleanup(w.Close)
	hosts := []string{"host-alpha.invalid", "host-bravo.invalid", "host-charlie.invalid"}
	var (
		conns []*captureConn
		ds    []*core.Dapplet
	)
	for i, h := range hosts {
		c := &captureConn{PacketConn: w.Conn(h)}
		d := core.NewDapplet(string(rune('a'+i)), "test", c, core.WithTransportConfig(transport.Config{RTO: 20 * time.Millisecond}))
		t.Cleanup(d.Stop)
		conns, ds = append(conns, c), append(ds, d)
	}
	a, b := ds[0], ds[1]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// One outbox message, a to b.
	mail := b.Inbox("mail")
	out := a.Outbox("out")
	out.Add(mail.Ref())
	if err := out.Send(&wire.Text{S: "hello"}); err != nil {
		t.Fatal(err)
	}
	env, err := mail.ReceiveEnvelopeContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if env.FromDapplet != a.Addr() || env.To.Dapplet != b.Addr() || env.FromOutbox != "out" {
		t.Fatalf("outbox message arrived from %v/%q to %v, want %v/%q to %v", env.FromDapplet, env.FromOutbox, env.To.Dapplet, a.Addr(), "out", b.Addr())
	}

	// A stream, a to one inbox of b in one session.
	const streamInbox, streamSession, streamLen = "stream-inbox-name", "stream-session-id", 20
	stream := b.Inbox(streamInbox)
	for i := range streamLen {
		if err := a.SendDirect(stream.Ref(), streamSession, &wire.Text{S: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range streamLen {
		env, err := stream.ReceiveEnvelopeContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if env.Body.(*wire.Text).S != fmt.Sprint(i) || env.To.Inbox != streamInbox || env.Session != streamSession || env.FromDapplet != a.Addr() {
			t.Fatalf("stream message %d arrived as %+v", i, env)
		}
	}
	retx := int(a.Transport().Stats().Retransmits) // each may resend the frame that carried the header
	for _, name := range []string{streamInbox, streamSession} {
		c := conns[0]
		c.mu.Lock()
		n := 0
		for _, p := range c.sent {
			n += bytes.Count(p, []byte(name))
		}
		c.mu.Unlock()
		if n < 1 || n > 1+retx {
			t.Errorf("%q is on the wire %d times across a %d-message stream with %d retransmissions, want once", name, n, streamLen, retx)
		}
	}

	// One svc call, a to b.
	type seen struct{ from, to, replyTo netsim.Addr }
	got := make(chan seen, 1)
	srv := svc.Serve(b, "svc", svc.Handlers{"wire.text": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
		got <- seen{c.From(), c.Envelope().To.Dapplet, c.ReplyTo().Dapplet}
		return req, nil
	}})
	caller := svc.NewCaller(a)
	var echo wire.Text
	if err := caller.Call(ctx, srv.Ref(), &wire.Text{S: "ping"}, &echo); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s.from != a.Addr() || s.to != b.Addr() || s.replyTo != a.Addr() || echo.S != "ping" {
		t.Fatalf("svc request seen from %v to %v replying to %v (echo %q), want from %v to %v replying to %v", s.from, s.to, s.replyTo, echo.S, a.Addr(), b.Addr(), a.Addr())
	}

	// One relay broadcast from a down a three-member tree.
	members := make([]relay.Member, len(ds))
	for i, d := range ds {
		members[i] = relay.Member{Name: d.Name(), Addr: d.Addr()}
	}
	tree := relay.NewTree(members, 2)
	relays := make([]*relay.Relay, len(ds))
	for i, d := range ds {
		relays[i] = relay.Attach(d)
		relays[i].Bind("s1", relay.Binding{Neighbors: tree.Neighbors(d.Name()), Depth: tree.Depth(), Inbox: "bcast", Epoch: 1, FromStart: true})
	}
	news := []*core.Inbox{b.Inbox("bcast"), ds[2].Inbox("bcast")}
	if err := relays[0].Multicast("bcast-out", "s1", a.Clock().StampSend(), &wire.Text{S: "news"}); err != nil {
		t.Fatal(err)
	}
	for i, in := range news {
		env, err := in.ReceiveEnvelopeContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if self := ds[i+1].Addr(); env.FromDapplet != a.Addr() || env.To.Dapplet != self || env.Session != "s1" {
			t.Fatalf("broadcast arrived at %v from %v in %q, want %v from %v in %q", env.To.Dapplet, env.FromDapplet, env.Session, self, a.Addr(), "s1")
		}
	}

	for i, c := range conns {
		c.mu.Lock()
		if i == 0 && len(c.sent) == 0 {
			t.Errorf("%s sent all three exchanges, yet wrote no datagrams", hosts[i])
		}
		for _, p := range c.sent {
			for _, h := range hosts {
				if bytes.Contains(p, []byte(h)) {
					t.Errorf("a datagram from %s names host %s: %q", hosts[i], h, p)
				}
			}
		}
		c.mu.Unlock()
	}
}
