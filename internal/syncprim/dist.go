package syncprim

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/tokens"
	"repro/internal/wire"
)

// Well-known inbox names of the distributed synchronization services.
const (
	// BarrierInbox is the barrier coordinator's control inbox.
	BarrierInbox = "@barrier"
	// RegisterInbox is the single-assignment register service's inbox.
	RegisterInbox = "@register"
	// syncClientInbox receives service replies at each client dapplet.
	syncClientInbox = "@sync-client"
)

// --- wire messages ---

type arriveMsg struct {
	Barrier string
	Parties int
	ReqID   uint64
	ReplyTo wire.InboxRef
}

func (*arriveMsg) Kind() string { return "sync.arrive" }

// AppendBinary implements wire.Msg.
func (m *arriveMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Barrier)
	dst = wire.AppendVarint(dst, int64(m.Parties))
	dst = wire.AppendUvarint(dst, m.ReqID)
	return wire.AppendInboxRef(dst, m.ReplyTo), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *arriveMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Barrier = r.String()
	m.Parties = int(r.Varint())
	m.ReqID = r.Uvarint()
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

type releaseMsg struct {
	Barrier string
	Round   int
	ReqID   uint64
}

func (*releaseMsg) Kind() string { return "sync.release" }

// AppendBinary implements wire.Msg.
func (m *releaseMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Barrier)
	dst = wire.AppendVarint(dst, int64(m.Round))
	return wire.AppendUvarint(dst, m.ReqID), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *releaseMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Barrier = r.String()
	m.Round = int(r.Varint())
	m.ReqID = r.Uvarint()
	return r.Done()
}

type regSetMsg struct {
	Name    string
	Value   []byte
	ReqID   uint64
	ReplyTo wire.InboxRef
}

func (*regSetMsg) Kind() string { return "sync.reg-set" }

// AppendBinary implements wire.Msg.
func (m *regSetMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendBytes(dst, m.Value)
	dst = wire.AppendUvarint(dst, m.ReqID)
	return wire.AppendInboxRef(dst, m.ReplyTo), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *regSetMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	m.Value = r.Bytes()
	m.ReqID = r.Uvarint()
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

type regSetReply struct {
	ReqID uint64
	Won   bool
}

func (*regSetReply) Kind() string { return "sync.reg-set-reply" }

// AppendBinary implements wire.Msg.
func (m *regSetReply) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, m.ReqID)
	return wire.AppendBool(dst, m.Won), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *regSetReply) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.ReqID = r.Uvarint()
	m.Won = r.Bool()
	return r.Done()
}

type regGetMsg struct {
	Name    string
	ReqID   uint64
	ReplyTo wire.InboxRef
}

func (*regGetMsg) Kind() string { return "sync.reg-get" }

// AppendBinary implements wire.Msg.
func (m *regGetMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendUvarint(dst, m.ReqID)
	return wire.AppendInboxRef(dst, m.ReplyTo), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *regGetMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Name = r.String()
	m.ReqID = r.Uvarint()
	m.ReplyTo = r.InboxRef()
	return r.Done()
}

type regValueMsg struct {
	ReqID uint64
	Value []byte
}

func (*regValueMsg) Kind() string { return "sync.reg-value" }

// AppendBinary implements wire.Msg.
func (m *regValueMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, m.ReqID)
	return wire.AppendBytes(dst, m.Value), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *regValueMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.ReqID = r.Uvarint()
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

// barrierState is one named barrier's coordinator state.
type barrierState struct {
	round   int
	arrived []arriveMsg
}

// BarrierService coordinates distributed cyclic barriers: threads in
// different dapplets Await on a named barrier and are all released when
// the declared number of parties have arrived.
type BarrierService struct {
	d  *core.Dapplet
	mu sync.Mutex
	bs map[string]*barrierState
}

// ServeBarriers starts the barrier coordinator on a dapplet.
func ServeBarriers(d *core.Dapplet) *BarrierService {
	s := &BarrierService{d: d, bs: make(map[string]*barrierState)}
	d.Handle(BarrierInbox, s.handle)
	return s
}

// Ref returns the service's control inbox reference.
func (s *BarrierService) Ref() wire.InboxRef {
	return wire.InboxRef{Dapplet: s.d.Addr(), Inbox: BarrierInbox}
}

func (s *BarrierService) handle(env *wire.Envelope) {
	m, ok := env.Body.(*arriveMsg)
	if !ok {
		return
	}
	s.mu.Lock()
	b := s.bs[m.Barrier]
	if b == nil {
		b = &barrierState{}
		s.bs[m.Barrier] = b
	}
	b.arrived = append(b.arrived, *m)
	var toRelease []arriveMsg
	var round int
	if len(b.arrived) >= m.Parties {
		toRelease = b.arrived
		b.arrived = nil
		round = b.round
		b.round++
	}
	s.mu.Unlock()
	for _, a := range toRelease {
		_ = s.d.SendDirect(a.ReplyTo, "", &releaseMsg{Barrier: m.Barrier, Round: round, ReqID: a.ReqID})
	}
}

// --- distributed client ---

// Client issues distributed synchronization operations from a dapplet.
type Client struct {
	d *core.Dapplet

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan *wire.Envelope
}

// NewClient attaches a synchronization client to a dapplet.
func NewClient(d *core.Dapplet) *Client {
	c := &Client{d: d, waiting: make(map[uint64]chan *wire.Envelope)}
	d.Handle(syncClientInbox, func(env *wire.Envelope) {
		var id uint64
		switch b := env.Body.(type) {
		case *releaseMsg:
			id = b.ReqID
		case *regSetReply:
			id = b.ReqID
		case *regValueMsg:
			id = b.ReqID
		default:
			return
		}
		c.mu.Lock()
		ch := c.waiting[id]
		delete(c.waiting, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- env
		}
	})
	return c
}

func (c *Client) call(to wire.InboxRef, build func(id uint64, re wire.InboxRef) wire.Msg) (*wire.Envelope, error) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	ch := make(chan *wire.Envelope, 1)
	c.waiting[id] = ch
	c.mu.Unlock()
	re := wire.InboxRef{Dapplet: c.d.Addr(), Inbox: syncClientInbox}
	if err := c.d.SendDirect(to, "", build(id, re)); err != nil {
		c.mu.Lock()
		delete(c.waiting, id)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case env := <-ch:
		return env, nil
	case <-c.d.Stopped():
		return nil, ErrClosed
	}
}

// BarrierAwait blocks until `parties` threads (across any dapplets) have
// arrived at the named barrier on the given coordinator, returning the
// round index.
func (c *Client) BarrierAwait(coord wire.InboxRef, name string, parties int) (int, error) {
	env, err := c.call(coord, func(id uint64, re wire.InboxRef) wire.Msg {
		return &arriveMsg{Barrier: name, Parties: parties, ReqID: id, ReplyTo: re}
	})
	if err != nil {
		return 0, err
	}
	rel, ok := env.Body.(*releaseMsg)
	if !ok {
		return 0, fmt.Errorf("syncprim: unexpected reply %T", env.Body)
	}
	return rel.Round, nil
}

// RegisterSet attempts a first-writer-wins assignment of the named
// distributed single-assignment variable, reporting whether this writer
// won.
func (c *Client) RegisterSet(svc wire.InboxRef, name string, value []byte) (bool, error) {
	env, err := c.call(svc, func(id uint64, re wire.InboxRef) wire.Msg {
		return &regSetMsg{Name: name, Value: value, ReqID: id, ReplyTo: re}
	})
	if err != nil {
		return false, err
	}
	rep, ok := env.Body.(*regSetReply)
	if !ok {
		return false, fmt.Errorf("syncprim: unexpected reply %T", env.Body)
	}
	return rep.Won, nil
}

// RegisterGet blocks until the named variable is assigned and returns its
// value.
func (c *Client) RegisterGet(svc wire.InboxRef, name string) ([]byte, error) {
	env, err := c.call(svc, func(id uint64, re wire.InboxRef) wire.Msg {
		return &regGetMsg{Name: name, ReqID: id, ReplyTo: re}
	})
	if err != nil {
		return nil, err
	}
	rep, ok := env.Body.(*regValueMsg)
	if !ok {
		return nil, fmt.Errorf("syncprim: unexpected reply %T", env.Body)
	}
	return rep.Value, nil
}

// --- single-assignment register service ---

// regState is one variable's service-side state.
type regState struct {
	set     bool
	value   []byte
	waiters []regGetMsg
}

// RegisterService hosts distributed single-assignment variables.
type RegisterService struct {
	d  *core.Dapplet
	mu sync.Mutex
	rs map[string]*regState
}

// ServeRegisters starts the register service on a dapplet.
func ServeRegisters(d *core.Dapplet) *RegisterService {
	s := &RegisterService{d: d, rs: make(map[string]*regState)}
	d.Handle(RegisterInbox, s.handle)
	return s
}

// Ref returns the service's control inbox reference.
func (s *RegisterService) Ref() wire.InboxRef {
	return wire.InboxRef{Dapplet: s.d.Addr(), Inbox: RegisterInbox}
}

func (s *RegisterService) handle(env *wire.Envelope) {
	switch m := env.Body.(type) {
	case *regSetMsg:
		s.mu.Lock()
		r := s.rs[m.Name]
		if r == nil {
			r = &regState{}
			s.rs[m.Name] = r
		}
		won := !r.set
		if won {
			r.set = true
			r.value = m.Value
		}
		waiters := r.waiters
		r.waiters = nil
		value := r.value
		s.mu.Unlock()
		_ = s.d.SendDirect(m.ReplyTo, "", &regSetReply{ReqID: m.ReqID, Won: won})
		for _, w := range waiters {
			_ = s.d.SendDirect(w.ReplyTo, "", &regValueMsg{ReqID: w.ReqID, Value: value})
		}
	case *regGetMsg:
		s.mu.Lock()
		r := s.rs[m.Name]
		if r == nil {
			r = &regState{}
			s.rs[m.Name] = r
		}
		if r.set {
			value := r.value
			s.mu.Unlock()
			_ = s.d.SendDirect(m.ReplyTo, "", &regValueMsg{ReqID: m.ReqID, Value: value})
			return
		}
		r.waiters = append(r.waiters, *m)
		s.mu.Unlock()
	}
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
func (s *DistSemaphore) P(n int) error {
	return s.m.Request(tokens.Bag{s.color: n})
}

// V releases n permits.
func (s *DistSemaphore) V(n int) error {
	return s.m.Release(tokens.Bag{s.color: n})
}
