// Package rpc implements the paper's global pointers and remote procedure
// calls over inboxes (§3.2 "Communication Layer Features"):
//
//	"Associate an inbox b with an object p. Messages in b are directions
//	to invoke appropriate methods on p. Associate a thread with b and p:
//	the thread receives a message from b and then invokes the method
//	specified in the message on p. Thus the address of the inbox serves
//	as a global pointer to an object associated with the inbox, and
//	messages serve the role of asynchronous RPCs. Synchronous RPCs are
//	implemented as pairwise asynchronous RPCs."
//
// The request/reply pairing, correlation ids and deadlines are the svc
// framework's (internal/svc); this package adds only the object/method
// model and the JSON argument convention on top of it.
package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/svc"
	"repro/internal/wire"
)

// Errors returned by the RPC layer.
var (
	// ErrClosed is returned when the client's dapplet has stopped.
	ErrClosed = errors.New("rpc: closed")
	// ErrNoMethod is returned (remotely) for unknown method names.
	ErrNoMethod = errors.New("rpc: no such method")
)

// Service error codes piggybacked through the svc reply: the remote end
// classifies its failure as a typed value, not a string the client would
// have to parse.
const (
	// codeNoMethod reports an unknown method name.
	codeNoMethod = svc.CodeUser + 0
	// codeRemote wraps an error raised by the remote method itself.
	codeRemote = svc.CodeUser + 1
)

// RemoteError carries an error raised by the remote object's method.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg) }

// Ref is a global pointer: the global address of the inbox associated
// with an object.
type Ref struct {
	Inbox wire.InboxRef `json:"in"`
}

// callMsg is an invocation direction placed in an object's inbox. Sent
// bare it is an asynchronous RPC (no reply); inside an svc frame the
// framework's correlation id and reply inbox make it synchronous.
type callMsg struct {
	Method string
	Args   json.RawMessage
}

func (*callMsg) Kind() string { return "rpc.call" }

// AppendBinary implements wire.Msg.
func (c *callMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, c.Method)
	dst = wire.AppendBytes(dst, c.Args)
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (c *callMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	c.Method = r.String()
	c.Args = r.Bytes()
	return r.Done()
}

// replyMsg carries a successful call's result; errors travel as typed
// svc error codes instead.
type replyMsg struct {
	Result json.RawMessage
}

func (*replyMsg) Kind() string { return "rpc.reply" }

// AppendBinary implements wire.Msg.
func (m *replyMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendBytes(dst, m.Result), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *replyMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Result = r.Bytes()
	return r.Done()
}

func init() {
	wire.Register(&callMsg{})
	wire.Register(&replyMsg{})
}

// Method is one invocable operation on a served object. Args arrive as
// JSON; the result must be JSON-serializable.
type Method func(args json.RawMessage) (any, error)

// Object is a set of named methods.
type Object map[string]Method

// Serve associates an object with an inbox named "@obj:<name>" on the
// dapplet and a thread that invokes the directed methods, returning the
// object's global pointer. The inbox is an svc-served inbox: correlated
// invocations are answered, bare ones are asynchronous. Methods are
// application code and may wait — on a nested Call, say — so the inbox's
// handler, which runs on the receive goroutine, only takes each
// invocation's reply (svc.Ctx.Defer) and queues it for the object's
// thread, which runs them one at a time in arrival order.
func Serve(d *core.Dapplet, name string, obj Object) Ref {
	o := &served{obj: obj, wake: make(chan struct{}, 1)}
	srv := svc.Serve(d, "@obj:"+name, svc.Handlers{
		"rpc.call": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			o.mu.Lock()
			o.q = append(o.q, invocation{call: req.(*callMsg), reply: c.Defer()})
			o.mu.Unlock()
			select {
			case o.wake <- struct{}{}:
			default:
			}
			return nil, nil
		},
	})
	d.Spawn(func() { o.run(d.Stopped()) })
	return Ref{Inbox: srv.Ref()}
}

// served is one served object and its queue of invocations.
type served struct {
	obj Object
	// wake has room for one signal: the handler leaves one whenever it
	// queues, so the thread never sleeps on a non-empty queue.
	wake chan struct{}

	mu sync.Mutex
	q  []invocation
}

// invocation is one queued call and the reply it owes (a no-op Reply
// for a bare, one-way call).
type invocation struct {
	call  *callMsg
	reply svc.Reply
}

// run is the object's thread: it invokes queued calls in arrival order
// until the dapplet stops.
func (o *served) run(stopped <-chan struct{}) {
	var batch []invocation
	for {
		select {
		case <-stopped:
			return
		case <-o.wake:
		}
		o.mu.Lock()
		batch, o.q = o.q, batch[:0]
		o.mu.Unlock()
		for i, inv := range batch {
			inv.reply.Send(o.invoke(inv.call))
			batch[i] = invocation{}
		}
	}
}

// invoke runs one call's method and frames its outcome as the reply.
func (o *served) invoke(call *callMsg) (wire.Msg, error) {
	m, found := o.obj[call.Method]
	if !found {
		return nil, &svc.Error{Code: codeNoMethod, Msg: call.Method}
	}
	result, err := m(call.Args)
	if err != nil {
		return nil, &svc.Error{Code: codeRemote, Msg: err.Error()}
	}
	if result == nil {
		return &replyMsg{}, nil
	}
	data, jerr := json.Marshal(result)
	if jerr != nil {
		return nil, &svc.Error{Code: codeRemote, Msg: fmt.Sprintf("marshal result: %v", jerr)}
	}
	return &replyMsg{Result: data}, nil
}

// Client issues calls from a dapplet to remote objects. Each client owns
// its own svc caller (private reply inbox and correlation ids), so any
// number of clients per dapplet coexist.
type Client struct {
	d      *core.Dapplet
	caller *svc.Caller
}

// NewClient attaches an RPC client to the dapplet.
func NewClient(d *core.Dapplet) *Client {
	return &Client{d: d, caller: svc.NewCaller(d)}
}

// Cast is an asynchronous RPC: a message directing the remote object to
// invoke a method, with no reply. Like an outbox send it waits for the
// object's window, so a stream of casts goes no faster than it is taken.
func (c *Client) Cast(ref Ref, method string, args any) error {
	data, err := marshalArgs(args)
	if err == nil {
		err = c.d.Transport().AwaitWindow(ref.Inbox.Dapplet)
	}
	if err != nil {
		return err
	}
	return c.caller.Cast(ref.Inbox, "", &callMsg{Method: method, Args: data})
}

// Call is a synchronous RPC implemented as pairwise asynchronous RPCs: it
// sends the invocation and suspends until the reply message arrives,
// decoding the result into out (which may be nil). The context bounds the
// wait: cancellation or deadline expiry returns ctx.Err().
func (c *Client) Call(ctx context.Context, ref Ref, method string, args any, out any) error {
	data, err := marshalArgs(args)
	if err != nil {
		return err
	}
	var rep replyMsg
	if err := c.caller.Call(ctx, ref.Inbox, &callMsg{Method: method, Args: data}, &rep); err != nil {
		var se *svc.Error
		if errors.As(err, &se) {
			switch se.Code {
			case codeNoMethod:
				return fmt.Errorf("%w: %q", ErrNoMethod, method)
			case codeRemote:
				return &RemoteError{Method: method, Msg: se.Msg}
			}
		}
		if errors.Is(err, core.ErrStopped) {
			return ErrClosed
		}
		return err
	}
	if out != nil && rep.Result != nil {
		if err := json.Unmarshal(rep.Result, out); err != nil {
			return fmt.Errorf("rpc: decode result of %s: %w", method, err)
		}
	}
	return nil
}

func marshalArgs(args any) (json.RawMessage, error) {
	if args == nil {
		return nil, nil
	}
	data, err := json.Marshal(args)
	if err != nil {
		return nil, fmt.Errorf("rpc: marshal args: %w", err)
	}
	return data, nil
}

// Args decodes JSON arguments into a typed value inside a Method body.
func Args[T any](raw json.RawMessage) (T, error) {
	var v T
	if len(raw) == 0 {
		return v, nil
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("rpc: decode args: %w", err)
	}
	return v, nil
}
