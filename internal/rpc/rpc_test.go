package rpc_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/world"
)

// newWorld is a world whose dapplets run a 20 ms RTO, closed when t ends.
func newWorld(t *testing.T, opts ...netsim.Option) *world.World {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, opts...)
	t.Cleanup(w.Close)
	return w
}

// counter is a tiny served object.
func counterObject() (rpc.Object, *sync.Mutex, *int) {
	var mu sync.Mutex
	n := 0
	obj := rpc.Object{
		"add": func(raw json.RawMessage) (any, error) {
			delta, err := rpc.Args[int](raw)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			n += delta
			return n, nil
		},
		"get": func(raw json.RawMessage) (any, error) {
			mu.Lock()
			defer mu.Unlock()
			return n, nil
		},
		"fail": func(raw json.RawMessage) (any, error) {
			return nil, errors.New("intentional failure")
		},
	}
	return obj, &mu, &n
}

func TestSyncCall(t *testing.T) {
	w := newWorld(t)
	server := w.Dapplet("caltech", "t", "server")
	clientD := w.Dapplet("rice", "t", "client")
	obj, _, _ := counterObject()
	ref := rpc.Serve(server, "counter", obj)
	cli := rpc.NewClient(clientD)

	var result int
	if err := cli.Call(context.Background(), ref, "add", 5, &result); err != nil {
		t.Fatal(err)
	}
	if result != 5 {
		t.Fatalf("result = %d", result)
	}
	if err := cli.Call(context.Background(), ref, "add", 3, &result); err != nil {
		t.Fatal(err)
	}
	if result != 8 {
		t.Fatalf("result = %d", result)
	}
	// Nil out is allowed.
	if err := cli.Call(context.Background(), ref, "add", 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncCast(t *testing.T) {
	w := newWorld(t)
	server := w.Dapplet("h1", "t", "server")
	clientD := w.Dapplet("h2", "t", "client")
	obj, mu, n := counterObject()
	ref := rpc.Serve(server, "counter", obj)
	cli := rpc.NewClient(clientD)

	for i := 0; i < 10; i++ {
		if err := cli.Cast(ref, "add", 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		v := *n
		mu.Unlock()
		if v == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("casts not applied: n=%d", v)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRemoteError(t *testing.T) {
	w := newWorld(t)
	server := w.Dapplet("h1", "t", "server")
	cli := rpc.NewClient(w.Dapplet("h2", "t", "client"))
	obj, _, _ := counterObject()
	ref := rpc.Serve(server, "counter", obj)
	err := cli.Call(context.Background(), ref, "fail", nil, nil)
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if remote.Msg != "intentional failure" || remote.Method != "fail" {
		t.Fatalf("remote = %+v", remote)
	}
}

func TestNoSuchMethod(t *testing.T) {
	w := newWorld(t)
	server := w.Dapplet("h1", "t", "server")
	cli := rpc.NewClient(w.Dapplet("h2", "t", "client"))
	obj, _, _ := counterObject()
	ref := rpc.Serve(server, "counter", obj)
	if err := cli.Call(context.Background(), ref, "bogus", nil, nil); !errors.Is(err, rpc.ErrNoMethod) {
		t.Fatalf("err = %v, want ErrNoMethod", err)
	}
}

// callWithin is Call under a deadline of d.
func callWithin(cli *rpc.Client, ref rpc.Ref, method string, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return cli.Call(ctx, ref, method, nil, nil)
}

func TestCallDeadlineAcrossPartition(t *testing.T) {
	w := newWorld(t)
	w.Net.Partition([]string{"h1"}, []string{"h2"})
	server := w.Dapplet("h1", "t", "server")
	cli := rpc.NewClient(w.Dapplet("h2", "t", "client"))
	obj, _, _ := counterObject()
	ref := rpc.Serve(server, "counter", obj)
	if err := callWithin(cli, ref, "get", 100*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestGlobalPointerIsTransferable(t *testing.T) {
	// A ref can be passed to another dapplet and used there: it is a
	// global pointer, not a local handle.
	w := newWorld(t)
	server := w.Dapplet("h1", "t", "server")
	obj, _, _ := counterObject()
	ref := rpc.Serve(server, "counter", obj)

	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	var ref2 rpc.Ref
	if err := json.Unmarshal(data, &ref2); err != nil {
		t.Fatal(err)
	}
	cli := rpc.NewClient(w.Dapplet("h3", "t", "other-client"))
	var out int
	if err := cli.Call(context.Background(), ref2, "add", 7, &out); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatalf("out = %d", out)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	w := newWorld(t)
	server := w.Dapplet("h1", "t", "server")
	clientD := w.Dapplet("h2", "t", "client")
	echo := rpc.Object{
		"echo": func(raw json.RawMessage) (any, error) {
			v, err := rpc.Args[int](raw)
			return v, err
		},
	}
	ref := rpc.Serve(server, "echo", echo)
	cli := rpc.NewClient(clientD)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out int
			if err := cli.Call(context.Background(), ref, "echo", i, &out); err != nil {
				t.Error(err)
				return
			}
			if out != i {
				t.Errorf("echo(%d) = %d", i, out)
			}
		}(i)
	}
	wg.Wait()
}

func TestClientClosedDuringCall(t *testing.T) {
	w := newWorld(t)
	w.Net.Partition([]string{"h1"}, []string{"h2"})
	server := w.Dapplet("h1", "t", "server")
	clientD := w.Dapplet("h2", "t", "client")
	obj, _, _ := counterObject()
	ref := rpc.Serve(server, "counter", obj)
	cli := rpc.NewClient(clientD)
	done := make(chan error, 1)
	go func() { done <- cli.Call(context.Background(), ref, "get", nil, nil) }()
	time.Sleep(50 * time.Millisecond)
	clientD.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, rpc.ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call never unblocked")
	}
}

func TestServedObjectsAreIndependent(t *testing.T) {
	w := newWorld(t)
	server := w.Dapplet("h1", "t", "server")
	cli := rpc.NewClient(w.Dapplet("h2", "t", "client"))
	objA, _, _ := counterObject()
	objB, _, _ := counterObject()
	refA := rpc.Serve(server, "a", objA)
	refB := rpc.Serve(server, "b", objB)
	var a, b int
	if err := cli.Call(context.Background(), refA, "add", 10, &a); err != nil {
		t.Fatal(err)
	}
	if err := cli.Call(context.Background(), refB, "get", nil, &b); err != nil {
		t.Fatal(err)
	}
	if a != 10 || b != 0 {
		t.Fatalf("a=%d b=%d; objects share state", a, b)
	}
}

// TestIndependentClientsPerDapplet pins the svc-era contract: every
// rpc.Client owns a private reply inbox and correlation-id space, so any
// number of clients on one dapplet interleave calls without stealing
// each other's replies (the old shared "@rpc-reply" inbox, and the
// shared-client workaround it forced, are gone).
func TestIndependentClientsPerDapplet(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(1))
	server := w.Dapplet("s", "t", "server")
	obj, _, _ := counterObject()
	ref := rpc.Serve(server, "counter", obj)

	d := w.Dapplet("c", "t", "client")
	c1 := rpc.NewClient(d)
	c2 := rpc.NewClient(d)
	if c1 == c2 {
		t.Fatal("NewClient returned the same client twice")
	}
	// Interleaved calls through both clients must all complete.
	for i := 0; i < 20; i++ {
		cli := c1
		if i%2 == 1 {
			cli = c2
		}
		var n int
		if err := cli.Call(context.Background(), ref, "add", 1, &n); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestCallExpiredContext pins the context contract: a Call whose context
// has already expired fails fast with context.DeadlineExceeded — never a
// bespoke rpc timeout error.
func TestCallExpiredContext(t *testing.T) {
	w := newWorld(t)
	server := w.Dapplet("h1", "t", "server")
	cli := rpc.NewClient(w.Dapplet("h2", "t", "client"))
	obj, _, _ := counterObject()
	ref := rpc.Serve(server, "counter", obj)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if err := cli.Call(ctx, ref, "get", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
