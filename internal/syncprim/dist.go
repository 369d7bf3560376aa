package syncprim

import (
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/svc"
	"repro/internal/tokens"
	"repro/internal/wire"
)

// Well-known svc-served inboxes of the distributed synchronization
// services.
const (
	// BarrierInbox is the barrier coordinator's control inbox.
	BarrierInbox = "@barrier"
	// RegisterInbox is the single-assignment register service's inbox.
	RegisterInbox = "@register"
)

// --- wire messages ---

type arriveMsg struct {
	Barrier string
	Parties int
}

func (*arriveMsg) Kind() string { return "sync.arrive" }

// AppendBinary implements wire.Msg.
func (m *arriveMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Barrier)
	return wire.AppendVarint(dst, int64(m.Parties)), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *arriveMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Barrier = r.String()
	m.Parties = int(r.Varint())
	return r.Done()
}

type releaseMsg struct {
	Round int
}

func (*releaseMsg) Kind() string { return "sync.release" }

// AppendBinary implements wire.Msg.
func (m *releaseMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendVarint(dst, int64(m.Round)), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *releaseMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Round = int(r.Varint())
	return r.Done()
}

type regSetMsg struct {
	Name  string
	Value []byte
}

func (*regSetMsg) Kind() string { return "sync.reg-set" }

// AppendBinary implements wire.Msg.
func (m *regSetMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Name)
	return wire.AppendBytes(dst, m.Value), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *regSetMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	m.Value = r.Bytes()
	return r.Done()
}

type regSetReply struct {
	Won bool
}

func (*regSetReply) Kind() string { return "sync.reg-set-reply" }

// AppendBinary implements wire.Msg.
func (m *regSetReply) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendBool(dst, m.Won), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *regSetReply) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Won = r.Bool()
	return r.Done()
}

type regGetMsg struct {
	Name string
}

func (*regGetMsg) Kind() string { return "sync.reg-get" }

// AppendBinary implements wire.Msg.
func (m *regGetMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendString(dst, m.Name), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *regGetMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	return r.Done()
}

type regValueMsg struct {
	Value []byte
}

func (*regValueMsg) Kind() string { return "sync.reg-value" }

// AppendBinary implements wire.Msg.
func (m *regValueMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendBytes(dst, m.Value), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *regValueMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Value = r.Bytes()
	return r.Done()
}

func init() {
	wire.Register(&arriveMsg{})
	wire.Register(&releaseMsg{})
	wire.Register(&regSetMsg{})
	wire.Register(&regSetReply{})
	wire.Register(&regGetMsg{})
	wire.Register(&regValueMsg{})
}

// --- barrier service ---

// barrierState is one named barrier's coordinator state: the current
// round and the deferred replies of the parties that reached it.
type barrierState struct {
	round   int
	arrived []svc.Reply
}

// BarrierService coordinates distributed cyclic barriers: threads in
// different dapplets Await on a named barrier and are all released when
// the declared number of parties have arrived.
type BarrierService struct {
	srv *svc.Server
	mu  sync.Mutex
	bs  map[string]*barrierState
}

// ServeBarriers starts the barrier coordinator on a dapplet.
func ServeBarriers(d *core.Dapplet) *BarrierService {
	s := &BarrierService{bs: make(map[string]*barrierState)}
	s.srv = svc.Serve(d, BarrierInbox, svc.Handlers{"sync.arrive": s.arrive})
	return s
}

// Ref returns the service's control inbox reference.
func (s *BarrierService) Ref() wire.InboxRef { return s.srv.Ref() }

// arrive holds each party's reply until the last one arrives, whose
// handler answers them all.
func (s *BarrierService) arrive(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*arriveMsg)
	s.mu.Lock()
	b := s.bs[m.Barrier]
	if b == nil {
		b = &barrierState{}
		s.bs[m.Barrier] = b
	}
	b.arrived = append(b.arrived, c.Defer())
	if len(b.arrived) < m.Parties {
		s.mu.Unlock()
		return nil, nil
	}
	arrived, rel := b.arrived, &releaseMsg{Round: b.round}
	b.arrived = nil
	b.round++
	s.mu.Unlock()
	for _, r := range arrived {
		r.Send(rel, nil)
	}
	return nil, nil
}

// --- distributed client ---

// Client issues distributed synchronization operations from a dapplet,
// each one svc request to the service's inbox. Every blocking call takes
// a context and returns ctx.Err() when it ends first, but the request has
// already reached the service and stays in effect: a cancelled
// BarrierAwait still counts as an arrival toward its round, and a
// cancelled RegisterGet's waiter is answered into the void once the
// variable is set.
type Client struct {
	c *svc.Caller
}

// NewClient attaches a synchronization client to a dapplet.
func NewClient(d *core.Dapplet) *Client {
	return &Client{c: svc.NewCaller(d)}
}

func (c *Client) call(ctx context.Context, to wire.InboxRef, req, resp wire.Msg) error {
	err := c.c.Call(ctx, to, req, resp)
	if errors.Is(err, core.ErrStopped) {
		return ErrClosed
	}
	return err
}

// BarrierAwait blocks until `parties` threads (across any dapplets) have
// arrived at the named barrier on the given coordinator, returning the
// round index.
func (c *Client) BarrierAwait(ctx context.Context, coord wire.InboxRef, name string, parties int) (int, error) {
	var rel releaseMsg
	if err := c.call(ctx, coord, &arriveMsg{Barrier: name, Parties: parties}, &rel); err != nil {
		return 0, err
	}
	return rel.Round, nil
}

// RegisterSet attempts a first-writer-wins assignment of the named
// distributed single-assignment variable, reporting whether this writer
// won.
func (c *Client) RegisterSet(ctx context.Context, service wire.InboxRef, name string, value []byte) (bool, error) {
	var rep regSetReply
	if err := c.call(ctx, service, &regSetMsg{Name: name, Value: value}, &rep); err != nil {
		return false, err
	}
	return rep.Won, nil
}

// RegisterGet blocks until the named variable is assigned and returns its
// value.
func (c *Client) RegisterGet(ctx context.Context, service wire.InboxRef, name string) ([]byte, error) {
	var rep regValueMsg
	if err := c.call(ctx, service, &regGetMsg{Name: name}, &rep); err != nil {
		return nil, err
	}
	return rep.Value, nil
}

// --- single-assignment register service ---

// regState is one variable's service-side state: its value once set, and
// the deferred replies of the reads that arrived before it was.
type regState struct {
	set     bool
	value   []byte
	waiters []svc.Reply
}

// RegisterService hosts distributed single-assignment variables.
type RegisterService struct {
	srv *svc.Server
	mu  sync.Mutex
	rs  map[string]*regState
}

// ServeRegisters starts the register service on a dapplet.
func ServeRegisters(d *core.Dapplet) *RegisterService {
	s := &RegisterService{rs: make(map[string]*regState)}
	s.srv = svc.Serve(d, RegisterInbox, svc.Handlers{
		"sync.reg-set": s.set,
		"sync.reg-get": s.get,
	})
	return s
}

// Ref returns the service's control inbox reference.
func (s *RegisterService) Ref() wire.InboxRef { return s.srv.Ref() }

// reg returns the named variable's state, creating it. Caller holds s.mu.
func (s *RegisterService) reg(name string) *regState {
	r := s.rs[name]
	if r == nil {
		r = &regState{}
		s.rs[name] = r
	}
	return r
}

// set assigns the variable if it is unset and answers the reads that
// arrived before it.
func (s *RegisterService) set(_ *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*regSetMsg)
	s.mu.Lock()
	r := s.reg(m.Name)
	won := !r.set
	if won {
		r.set = true
		r.value = m.Value
	}
	waiters := r.waiters
	r.waiters = nil
	value := &regValueMsg{Value: r.value}
	s.mu.Unlock()
	for _, w := range waiters {
		w.Send(value, nil)
	}
	return &regSetReply{Won: won}, nil
}

// get answers with the value, or defers the reply until a set.
func (s *RegisterService) get(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*regGetMsg)
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.reg(m.Name)
	if !r.set {
		r.waiters = append(r.waiters, c.Defer())
		return nil, nil
	}
	return &regValueMsg{Value: r.value}, nil
}

// DistSemaphore is a distributed counting semaphore built on the token
// service: P acquires tokens of the semaphore's colour, V releases them.
type DistSemaphore struct {
	m     *tokens.Manager
	color tokens.Color
}

// NewDistSemaphore wraps a token manager and colour as a semaphore. The
// allocator's population of that colour is the semaphore's capacity.
func NewDistSemaphore(m *tokens.Manager, color tokens.Color) *DistSemaphore {
	return &DistSemaphore{m: m, color: color}
}

// P acquires n permits, suspending until they are available.
func (s *DistSemaphore) P(ctx context.Context, n int) error {
	return s.m.Request(ctx, tokens.Bag{s.color: n})
}

// V releases n permits.
func (s *DistSemaphore) V(n int) error {
	return s.m.Release(tokens.Bag{s.color: n})
}
