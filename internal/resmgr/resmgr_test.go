package resmgr_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/resmgr"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// newWorld is a world whose runtime can launch "worker" dapplets, closed
// when t ends.
func newWorld(t *testing.T) *world.World {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, netsim.WithSeed(1))
	t.Cleanup(w.Close)
	w.RT.Registry().Register("worker", func() core.Behavior {
		return core.BehaviorFunc(func(d *core.Dapplet) error {
			d.Inbox("work")
			return nil
		})
	})
	return w
}

func launchClient(t *testing.T, w *world.World, host, name string, mgr *resmgr.Manager) (*core.Dapplet, *resmgr.Client) {
	t.Helper()
	d, err := w.Launch(context.Background(), host, "worker", name)
	if err != nil {
		t.Fatal(err)
	}
	return d, resmgr.NewClient(d, mgr.Ref())
}

func TestPublishLookup(t *testing.T) {
	w := newWorld(t)
	mgr, err := resmgr.Install(w.RT, "machine1")
	if err != nil {
		t.Fatal(err)
	}
	d, cli := launchClient(t, w, "machine1", "w1", mgr)
	svcInbox := d.Inbox("work").Ref()
	if err := cli.Publish(context.Background(), "printing", svcInbox); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Lookup(context.Background(), "printing")
	if err != nil {
		t.Fatal(err)
	}
	if got.Inbox != svcInbox || got.Owner != "w1" {
		t.Fatalf("lookup = %+v", got)
	}
	// Lookup from a different dapplet (even on another machine).
	_, cli2 := launchClient(t, w, "machine1", "w2", mgr)
	if _, err := cli2.Lookup(context.Background(), "printing"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli2.Lookup(context.Background(), "nonexistent"); err == nil {
		t.Fatal("missing service found")
	}
	list, err := cli2.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "printing" {
		t.Fatalf("list = %+v", list)
	}
}

func TestHeartbeats(t *testing.T) {
	w := newWorld(t)
	mgr, err := resmgr.Install(w.RT, "m")
	if err != nil {
		t.Fatal(err)
	}
	_, c1 := launchClient(t, w, "m", "alpha", mgr)
	_, c2 := launchClient(t, w, "m", "beta", mgr)
	if err := c1.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	alive, err := c1.Alive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(alive) != 2 {
		t.Fatalf("alive = %v", alive)
	}
}

func TestRemoteLaunch(t *testing.T) {
	w := newWorld(t)
	mgr, err := resmgr.Install(w.RT, "far-machine")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RT.Install("far-machine", "worker"); err != nil {
		t.Fatal(err)
	}
	// A client on a different machine asks the far manager to activate a
	// worker there.
	d := w.Dapplet("near", "t", "requester")
	cli := resmgr.NewClient(d, mgr.Ref())
	addr, err := cli.Launch(context.Background(), "worker", "remote-worker")
	if err != nil {
		t.Fatal(err)
	}
	if addr.Dapplet.Host != "far-machine" {
		t.Fatalf("launched on %v", addr.Dapplet)
	}
	if _, ok := w.RT.Dapplet("remote-worker"); !ok {
		t.Fatal("runtime does not know the launched dapplet")
	}
	// The launched dapplet is reachable.
	if err := d.SendDirect(wire.InboxRef{Dapplet: addr.Dapplet, Inbox: "work"}, "", &wire.Text{S: "job"}); err != nil {
		t.Fatal(err)
	}
	rw, _ := w.RT.Dapplet("remote-worker")
	if _, err := rw.Inbox("work").ReceiveContext(waitCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchUninstalledTypeFails(t *testing.T) {
	w := newWorld(t)
	mgr, err := resmgr.Install(w.RT, "m")
	if err != nil {
		t.Fatal(err)
	}
	d := w.Dapplet("x", "t", "req")
	cli := resmgr.NewClient(d, mgr.Ref())
	_, err = cli.Launch(context.Background(), "no-such-type", "z")
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestManagersPerMachineAreIndependent(t *testing.T) {
	w := newWorld(t)
	m1, err := resmgr.Install(w.RT, "m1")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := resmgr.Install(w.RT, "m2")
	if err != nil {
		t.Fatal(err)
	}
	d, c1 := launchClient(t, w, "m1", "w1", m1)
	if err := c1.Publish(context.Background(), "svc", d.Inbox("work").Ref()); err != nil {
		t.Fatal(err)
	}
	// m2 does not see m1's registrations.
	c2 := resmgr.NewClient(d, m2.Ref())
	if _, err := c2.Lookup(context.Background(), "svc"); err == nil {
		t.Fatal("service leaked across machines")
	}
}

// waitCtx returns a context that expires after d, cleaned up with the test.
func waitCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
