package wwds_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lclock"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/state"
	"repro/internal/syncprim"
	"repro/internal/tokens"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
	"repro/wwds"
)

// newWorld builds a world and returns a helper that puts a dapplet on a
// named host.
func newWorld(t *testing.T, seed int64) func(host, name string) *core.Dapplet {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, wwds.WithSeed(seed))
	t.Cleanup(w.Close)
	return func(host, name string) *core.Dapplet { return w.Dapplet(host, "t", name) }
}

// newPair builds two connected dapplets through the public facade.
func newPair(t *testing.T) (*core.Dapplet, *core.Dapplet) {
	t.Helper()
	dap := newWorld(t, 1)
	return dap("a", "a"), dap("b", "b")
}

func TestFacadeMessaging(t *testing.T) {
	da, db := newPair(t)
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

// facadeMsg is an application message sent between facade dapplets.
type facadeMsg struct {
	N int
}

func (*facadeMsg) Kind() string { return "wwds_test.facade" }

func (m *facadeMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendVarint(dst, int64(m.N)), nil
}

func (m *facadeMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.N = int(r.Varint())
	return r.Done()
}

func TestFacadeCustomMessage(t *testing.T) {
	wire.Register(&facadeMsg{})
	da, db := newPair(t)
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
	dap := newWorld(t, 2)
	dir := wwds.NewDirectory()
	var members []*core.Dapplet
	for i := 0; i < 3; i++ {
		d := dap(fmt.Sprintf("h%d", i), fmt.Sprintf("m%d", i))
		session.Attach(d, session.Policy{})
		dir.Register(context.Background(), wwds.DirEntry{Name: d.Name(), Type: "member", Addr: d.Addr()})
		members = append(members, d)
	}
	ini := wwds.NewInitiator(dap("hq", "director"), dir)

	spec := session.Spec{ID: "facade-session", Task: "smoke test"}
	for i := range members {
		spec.Participants = append(spec.Participants,
			session.Participant{Name: fmt.Sprintf("m%d", i), Role: "member"})
	}
	spec.Links = append(spec.Links,
		session.Link{From: "m0", Outbox: "out", To: "m1", Inbox: "in"},
		session.Link{From: "m1", Outbox: "out", To: "m2", Inbox: "in"},
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
	ctx := testCtx(t)
	da, db := newPair(t)
	alloc := tokens.Serve(da, tokens.Bag{"doc": 2})
	mgr := tokens.NewManager(db, alloc.Ref())
	lock := tokens.NewRWLock(mgr, "doc")
	if err := lock.RLock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lock.RUnlock(); err != nil {
		t.Fatal(err)
	}
	if err := lock.Lock(ctx); err != nil {
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
	da, db := newPair(t)
	ref := rpc.Serve(da, "adder", rpc.Object{
		"add2": func(raw []byte) ([]byte, error) {
			if len(raw) != 1 {
				return nil, fmt.Errorf("add2 takes one byte, got %d", len(raw))
			}
			return []byte{raw[0] + 2}, nil
		},
	})
	if out, err := rpc.NewClient(db).Call(testCtx(t), ref, "add2", []byte{40}); err != nil || len(out) != 1 || out[0] != 42 {
		t.Fatalf("out = %v, %v", out, err)
	}
}

func TestFacadeSnapshot(t *testing.T) {
	dap := newWorld(t, 1)
	da, db := dap("a", "a"), dap("b", "b")
	sa := snapshot.Attach(da, func() []byte { return []byte("state-a") })
	sb := snapshot.Attach(db, func() []byte { return []byte("state-b") })
	members := []snapshot.Member{{Name: "a", Addr: da.Addr()}, {Name: "b", Addr: db.Addr()}}
	sa.SetPeers(members[1:])
	sb.SetPeers(members[:1])
	coord := snapshot.NewCoordinator(dap("c", "coord"), members)
	g, err := coord.SnapshotMarker(testCtx(t))
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
	da, db := newPair(t)
	svc := syncprim.ServeBarriers(da)
	cli := syncprim.NewClient(db)
	round, err := cli.BarrierAwait(testCtx(t), svc.Ref(), "solo", 1)
	if err != nil || round != 0 {
		t.Fatalf("round=%d err=%v", round, err)
	}

	st := state.NewStore()
	st.Set("k", []byte{7})
	if v, ok := st.Get("k"); !ok || len(v) != 1 || v[0] != 7 {
		t.Fatalf("get = %v %v", v, ok)
	}
	if err := st.TryAcquire("s1", state.AccessSet{Write: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeClockStamps(t *testing.T) {
	da, db := newPair(t)
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
	if s1, s2 := (lclock.Stamp{Time: 1, ID: "a"}), (lclock.Stamp{Time: 1, ID: "b"}); !s1.Less(s2) {
		t.Fatal("stamp ordering broken")
	}
}

func TestFacadeDirectoryService(t *testing.T) {
	dap := newWorld(t, 3)

	// Two shards, one replica each, hosted through the facade.
	var refs [][]wwds.InboxRef
	for s := 0; s < 2; s++ {
		svc := wwds.ServeDirectory(dap(fmt.Sprintf("dh%d", s), fmt.Sprintf("dir-%d", s)))
		refs = append(refs, []wwds.InboxRef{svc.Ref()})
	}
	cluster, err := wwds.NewDirectoryCluster(refs)
	if err != nil {
		t.Fatal(err)
	}
	cli := wwds.NewDirectoryClient(dap("hc", "client"), cluster)

	target := dap("ht", "worker")
	session.Attach(target, session.Policy{})
	if err := cli.Register(context.Background(), wwds.DirEntry{Name: "worker", Type: "t", Addr: target.Addr()}); err != nil {
		t.Fatal(err)
	}
	if got, err := cli.MustLookup(context.Background(), "worker"); err != nil || got.Addr != target.Addr() {
		t.Fatalf("lookup = %+v, %v", got, err)
	}

	// The initiator accepts the caching client as its resolver.
	ini := wwds.NewInitiator(dap("hq", "director"), cli)
	h, err := ini.Initiate(context.Background(), session.Spec{
		ID:           "dir-facade",
		Participants: []session.Participant{{Name: "worker", Role: "member"}},
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

// TestReexportsHaveUsers keeps the facade as wide as its callers: every
// exported name in wwds.go must be used as wwds.<Name> by an example
// program or the README.
func TestReexportsHaveUsers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "wwds.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}

	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	users := []string{string(readme)}
	err = filepath.WalkDir("../examples", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		users = append(users, string(src))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Join(users, "\n")
	for _, name := range names {
		if ast.IsExported(name) && !regexp.MustCompile(`\bwwds\.`+name+`\b`).MatchString(all) {
			t.Errorf("wwds.%s is named by no example and not in README.md: delete the re-export or use it", name)
		}
	}
}

// testCtx returns a context bounding one blocking call in these tests.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}
