package rpc_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rpc"
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

// num and atoi are these tests' argument and result codec: an int as a
// varint.
func num(n int) []byte { return wire.AppendVarint(nil, int64(n)) }

func atoi(b []byte) (int, error) {
	r := wire.NewReader(b)
	n := int(r.Varint())
	return n, r.Done()
}

// callInt calls a method whose result is an int.
func callInt(ctx context.Context, cli *rpc.Client, ref rpc.Ref, method string, args []byte) (int, error) {
	res, err := cli.Call(ctx, ref, method, args)
	if err != nil {
		return 0, err
	}
	return atoi(res)
}

// counter is a tiny served object.
func counterObject() (rpc.Object, *sync.Mutex, *int) {
	var mu sync.Mutex
	n := 0
	obj := rpc.Object{
		"add": func(raw []byte) ([]byte, error) {
			delta, err := atoi(raw)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			n += delta
			return num(n), nil
		},
		"get": func([]byte) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			return num(n), nil
		},
		"fail": func([]byte) ([]byte, error) {
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

	result, err := callInt(context.Background(), cli, ref, "add", num(5))
	if err != nil {
		t.Fatal(err)
	}
	if result != 5 {
		t.Fatalf("result = %d", result)
	}
	if result, err = callInt(context.Background(), cli, ref, "add", num(3)); err != nil {
		t.Fatal(err)
	}
	if result != 8 {
		t.Fatalf("result = %d", result)
	}
	// The result may be ignored.
	if _, err := cli.Call(context.Background(), ref, "add", num(1)); err != nil {
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
		if err := cli.Cast(ref, "add", num(1)); err != nil {
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
	_, err := cli.Call(context.Background(), ref, "fail", nil)
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
	if _, err := cli.Call(context.Background(), ref, "bogus", nil); !errors.Is(err, rpc.ErrNoMethod) {
		t.Fatalf("err = %v, want ErrNoMethod", err)
	}
}

// callWithin is Call under a deadline of d.
func callWithin(cli *rpc.Client, ref rpc.Ref, method string, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	_, err := cli.Call(ctx, ref, method, nil)
	return err
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

	// The ref crosses in its wire encoding, as a message would carry it.
	r := wire.NewReader(wire.AppendInboxRef(nil, ref.Inbox))
	ref2 := rpc.Ref{Inbox: r.InboxRef()}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	cli := rpc.NewClient(w.Dapplet("h3", "t", "other-client"))
	out, err := callInt(context.Background(), cli, ref2, "add", num(7))
	if err != nil {
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
		"echo": func(raw []byte) ([]byte, error) { return raw, nil },
	}
	ref := rpc.Serve(server, "echo", echo)
	cli := rpc.NewClient(clientD)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := callInt(context.Background(), cli, ref, "echo", num(i))
			if err != nil {
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
	go func() {
		_, err := cli.Call(context.Background(), ref, "get", nil)
		done <- err
	}()
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
	a, err := callInt(context.Background(), cli, refA, "add", num(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := callInt(context.Background(), cli, refB, "get", nil)
	if err != nil {
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
		if _, err := cli.Call(context.Background(), ref, "add", num(1)); err != nil {
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
	if _, err := cli.Call(ctx, ref, "get", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestNestedCallFromMethod: a method is application code and may wait,
// here on a nested Call to a second object served by the same dapplet.
// Methods run on their object's thread, not on the receive goroutine
// that must deliver the nested call's request and reply.
func TestNestedCallFromMethod(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(2))
	server := w.Dapplet("h1", "t", "server")
	inner, _, _ := counterObject()
	innerRef := rpc.Serve(server, "inner", inner)
	nested := rpc.NewClient(server)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	outerRef := rpc.Serve(server, "outer", rpc.Object{
		"addTwice": func(raw []byte) ([]byte, error) {
			n, err := atoi(raw)
			if err != nil {
				return nil, err
			}
			return nested.Call(ctx, innerRef, "add", num(2*n))
		},
	})
	cli := rpc.NewClient(w.Dapplet("h2", "t", "client"))
	for _, tc := range []struct{ n, want int }{{3, 6}, {4, 14}} {
		got, err := callInt(ctx, cli, outerRef, "addTwice", num(tc.n))
		if err != nil {
			t.Fatalf("addTwice(%d): %v", tc.n, err)
		}
		if got != tc.want {
			t.Fatalf("addTwice(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestQueuedCallsKeepTheirArgs queues two calls behind a method that
// waits. The object's handler queues each call for the object's thread,
// and the request it is handed is lent (its server decodes the next one
// over it), so the queue must keep copies: each call reaches its method
// with its own arguments. A queue of the lent requests themselves hands
// both methods the arguments of whichever came last (and, in a race
// build, which spoils lent requests, no method name at all).
func TestQueuedCallsKeepTheirArgs(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(3))
	server := w.Dapplet("h1", "t", "server")
	release := make(chan struct{})
	ref := rpc.Serve(server, "queue", rpc.Object{
		"wait": func([]byte) ([]byte, error) { <-release; return nil, nil },
		"echo": func(raw []byte) ([]byte, error) { return raw, nil },
		"mark": func([]byte) ([]byte, error) { return nil, nil },
	})
	arrived := make(chan struct{}, 8)
	server.OnRecv(func(env *wire.Envelope) {
		if env.To.Inbox == ref.Inbox.Inbox {
			arrived <- struct{}{}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	awaitArrivals := func(n int) {
		t.Helper()
		for range n {
			select {
			case <-arrived:
			case <-ctx.Done():
				t.Fatal("the calls never reached the object")
			}
		}
	}
	cli := rpc.NewClient(w.Dapplet("h2", "t", "client"))
	waited := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, ref, "wait", nil)
		waited <- err
	}()
	awaitArrivals(1)
	type outcome struct {
		n   int
		err error
	}
	echoes := make([]chan outcome, 2)
	for i := range echoes {
		echoes[i] = make(chan outcome, 1)
		go func() {
			n, err := callInt(ctx, cli, ref, "echo", num(i))
			echoes[i] <- outcome{n, err}
		}()
	}
	awaitArrivals(len(echoes))
	// Observers run just before their arrival's dispatch, on the one
	// goroutine that delivers the server's arrivals: once a mark sent now
	// arrives, both echoes are queued.
	if err := cli.Cast(ref, "mark", nil); err != nil {
		t.Fatal(err)
	}
	awaitArrivals(1)
	close(release)
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	for i, ch := range echoes {
		if o := <-ch; o.err != nil || o.n != i {
			t.Fatalf("echo(%d) = %d, %v", i, o.n, o.err)
		}
	}
}
