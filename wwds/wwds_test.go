package wwds_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/wwds"
)

// newPair builds two connected dapplets through the public facade.
func newPair(t *testing.T) (*wwds.Network, *wwds.Dapplet, *wwds.Dapplet) {
	t.Helper()
	net := wwds.NewNetwork(wwds.WithSeed(1))
	t.Cleanup(net.Close)
	epA, err := net.Host("a").BindAny()
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Host("b").BindAny()
	if err != nil {
		t.Fatal(err)
	}
	cfg := wwds.WithTransportConfig(wwds.TransportConfig{RTO: 20 * time.Millisecond})
	da := wwds.NewDapplet("a", "t", wwds.NewSimConn(epA), cfg)
	db := wwds.NewDapplet("b", "t", wwds.NewSimConn(epB), cfg)
	t.Cleanup(da.Stop)
	t.Cleanup(db.Stop)
	return net, da, db
}

func TestFacadeMessaging(t *testing.T) {
	_, da, db := newPair(t)
	in := db.Inbox("mail")
	out := da.Outbox("out")
	out.Add(in.Ref())
	if err := out.Send(&wwds.Text{S: "via facade"}); err != nil {
		t.Fatal(err)
	}
	msg, err := in.ReceiveContext(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if msg.(*wwds.Text).S != "via facade" {
		t.Fatalf("got %v", msg)
	}
}

// facadeMsg checks custom message registration through the facade.
type facadeMsg struct {
	N int
}

func (*facadeMsg) Kind() string { return "wwds_test.facade" }

// The codec is written against the facade's re-exports only.
func (m *facadeMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wwds.AppendVarint(dst, int64(m.N)), nil
}

func (m *facadeMsg) UnmarshalBinary(data []byte) error {
	r := wwds.NewWireReader(data)
	m.N = int(r.Varint())
	return r.Done()
}

func TestFacadeCustomMessage(t *testing.T) {
	wwds.RegisterMessage(&facadeMsg{})
	_, da, db := newPair(t)
	in := db.Inbox("in")
	out := da.Outbox("out")
	out.Add(in.Ref())
	if err := out.Send(&facadeMsg{N: 42}); err != nil {
		t.Fatal(err)
	}
	msg, err := in.ReceiveContext(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if msg.(*facadeMsg).N != 42 {
		t.Fatalf("got %+v", msg)
	}
}

func TestFacadeSessionLifecycle(t *testing.T) {
	net := wwds.NewNetwork(wwds.WithSeed(2))
	t.Cleanup(net.Close)
	dir := wwds.NewDirectory()
	cfg := wwds.WithTransportConfig(wwds.TransportConfig{RTO: 20 * time.Millisecond})

	var members []*wwds.Dapplet
	for i := 0; i < 3; i++ {
		ep, err := net.Host(fmt.Sprintf("h%d", i)).BindAny()
		if err != nil {
			t.Fatal(err)
		}
		d := wwds.NewDapplet(fmt.Sprintf("m%d", i), "member", wwds.NewSimConn(ep), cfg)
		t.Cleanup(d.Stop)
		wwds.AttachSessions(d, wwds.SessionPolicy{})
		dir.Register(context.Background(), wwds.DirEntry{Name: d.Name(), Type: "member", Addr: d.Addr()})
		members = append(members, d)
	}
	epI, err := net.Host("hq").BindAny()
	if err != nil {
		t.Fatal(err)
	}
	iniD := wwds.NewDapplet("director", "director", wwds.NewSimConn(epI), cfg)
	t.Cleanup(iniD.Stop)
	ini := wwds.NewInitiator(iniD, dir)

	spec := wwds.SessionSpec{ID: "facade-session", Task: "smoke test"}
	for i := range members {
		spec.Participants = append(spec.Participants,
			wwds.Participant{Name: fmt.Sprintf("m%d", i), Role: "member"})
	}
	spec.Links = append(spec.Links,
		wwds.Link{From: "m0", Outbox: "out", To: "m1", Inbox: "in"},
		wwds.Link{From: "m1", Outbox: "out", To: "m2", Inbox: "in"},
	)
	h, err := ini.Initiate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := members[0].Outbox("out").Send(&wwds.Text{S: "chain"}); err != nil {
		t.Fatal(err)
	}
	if _, err := members[1].Inbox("in").ReceiveContext(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := h.Terminate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(members[0].Outbox("out").Destinations()); n != 0 {
		t.Fatalf("bindings survived terminate: %d", n)
	}
}

func TestFacadeTokensAndRWLock(t *testing.T) {
	_, da, db := newPair(t)
	alloc := wwds.ServeTokens(da, wwds.TokenBag{"doc": 2})
	mgr := wwds.NewTokenManager(db, alloc.Ref())
	lock := wwds.NewRWLock(mgr, "doc")
	if err := lock.RLock(); err != nil {
		t.Fatal(err)
	}
	if err := lock.RUnlock(); err != nil {
		t.Fatal(err)
	}
	if err := lock.Lock(); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Holds()["doc"]; got != 2 {
		t.Fatalf("holds = %d", got)
	}
	if err := lock.Unlock(); err != nil {
		t.Fatal(err)
	}
	if !alloc.ConservationHolds() {
		t.Fatal("conservation violated")
	}
}

func TestFacadeRPC(t *testing.T) {
	_, da, db := newPair(t)
	ref := wwds.ServeObject(da, "adder", wwds.RPCObject{
		"add2": func(raw json.RawMessage) (any, error) {
			var v int
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, err
			}
			return v + 2, nil
		},
	})
	cli := wwds.NewRPCClient(db)
	var out int
	if err := cli.Call(context.Background(), ref, "add2", 40, &out); err != nil {
		t.Fatal(err)
	}
	if out != 42 {
		t.Fatalf("out = %d", out)
	}
}

func TestFacadeSnapshot(t *testing.T) {
	net, da, db := newPair(t)
	_ = net
	sa := wwds.AttachSnapshots(da, func() any { return "state-a" })
	sb := wwds.AttachSnapshots(db, func() any { return "state-b" })
	members := []wwds.SnapshotMember{
		{Name: "a", Addr: da.Addr()},
		{Name: "b", Addr: db.Addr()},
	}
	sa.SetPeers(members[1:])
	sb.SetPeers(members[:1])

	epC, err := net.Host("c").BindAny()
	if err != nil {
		t.Fatal(err)
	}
	coordD := wwds.NewDapplet("coord", "coord", wwds.NewSimConn(epC),
		wwds.WithTransportConfig(wwds.TransportConfig{RTO: 20 * time.Millisecond}))
	t.Cleanup(coordD.Stop)
	coord := wwds.NewSnapshotCoordinator(coordD, members)
	coord.SetSettle(10 * time.Millisecond)
	g, err := coord.SnapshotMarker(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if len(g.States) != 2 {
		t.Fatalf("states = %d", len(g.States))
	}
}

func TestFacadeSyncAndStore(t *testing.T) {
	_, da, db := newPair(t)
	svc := wwds.ServeBarriers(da)
	cli := wwds.NewSyncClient(db)
	round, err := cli.BarrierAwait(svc.Ref(), "solo", 1)
	if err != nil || round != 0 {
		t.Fatalf("round=%d err=%v", round, err)
	}

	st := wwds.NewStore()
	if err := st.Set("k", 7); err != nil {
		t.Fatal(err)
	}
	var v int
	if ok, err := st.Get("k", &v); !ok || err != nil || v != 7 {
		t.Fatalf("get = %d %v %v", v, ok, err)
	}
	if err := st.TryAcquire("s1", wwds.AccessSet{Write: []string{"k"}}); err != nil {
		t.Fatal(err)
	}

	bar := wwds.NewBarrier(1)
	if bar.Await() != 0 {
		t.Fatal("local barrier round")
	}
	sem := wwds.NewSemaphore(1)
	if err := sem.Acquire(1); err != nil {
		t.Fatal(err)
	}
	sem.Release(1)
}

func TestFacadeClockStamps(t *testing.T) {
	_, da, db := newPair(t)
	in := db.Inbox("in")
	out := da.Outbox("out")
	out.Add(in.Ref())
	if err := out.Send(&wwds.Text{S: "x"}); err != nil {
		t.Fatal(err)
	}
	env, err := in.ReceiveEnvelopeContext(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if db.Clock().Now() <= env.Lamport {
		t.Fatal("snapshot criterion violated through facade")
	}
	s1 := wwds.Stamp{Time: 1, ID: "a"}
	s2 := wwds.Stamp{Time: 1, ID: "b"}
	if !s1.Less(s2) {
		t.Fatal("stamp ordering broken")
	}
}

func TestFacadeDirectoryService(t *testing.T) {
	net := wwds.NewNetwork(wwds.WithSeed(3))
	t.Cleanup(net.Close)
	cfg := wwds.WithTransportConfig(wwds.TransportConfig{RTO: 20 * time.Millisecond})

	newDap := func(host, name string) *wwds.Dapplet {
		ep, err := net.Host(host).BindAny()
		if err != nil {
			t.Fatal(err)
		}
		d := wwds.NewDapplet(name, "t", wwds.NewSimConn(ep), cfg)
		t.Cleanup(d.Stop)
		return d
	}

	// Two shards, one replica each, hosted through the facade.
	var refs [][]wwds.InboxRef
	for s := 0; s < 2; s++ {
		svc := wwds.ServeDirectory(newDap(fmt.Sprintf("dh%d", s), fmt.Sprintf("dir-%d", s)))
		refs = append(refs, []wwds.InboxRef{svc.Ref()})
	}
	cluster, err := wwds.NewDirectoryCluster(refs)
	if err != nil {
		t.Fatal(err)
	}
	cli := wwds.NewDirectoryClient(newDap("hc", "client"), cluster)

	target := newDap("ht", "worker")
	wwds.AttachSessions(target, wwds.SessionPolicy{})
	if err := cli.Register(context.Background(), wwds.DirEntry{Name: "worker", Type: "t", Addr: target.Addr()}); err != nil {
		t.Fatal(err)
	}
	if got, err := cli.MustLookup(context.Background(), "worker"); err != nil || got.Addr != target.Addr() {
		t.Fatalf("lookup = %+v, %v", got, err)
	}

	// The initiator accepts the caching client as its DirResolver.
	var _ wwds.DirResolver = cli
	ini := wwds.NewInitiator(newDap("hq", "director"), cli)
	h, err := ini.Initiate(context.Background(), wwds.SessionSpec{
		ID:           "dir-facade",
		Participants: []wwds.Participant{{Name: "worker", Role: "member"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Terminate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := cli.Stats(); st.Hits == 0 {
		t.Fatalf("session setup did not use the cache: %+v", st)
	}
}

// testCtx returns a context bounding one receive in these tests.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}
