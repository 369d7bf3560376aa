package tokens

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/svc"
	"repro/internal/wire"
)

// Manager is the per-dapplet token manager: it tracks holdsTokens — "the
// number of tokens of each color that the dapplet holds" (§4.1) — and
// talks to the session's allocator through its own svc caller, so any
// number of managers (one per session, each with its own allocator) share
// a dapplet. A dapplet has at most one request outstanding at a time per
// Manager (Request suspends, as in the paper).
type Manager struct {
	d     *core.Dapplet
	c     *svc.Caller
	alloc wire.InboxRef

	mu    sync.Mutex
	holds Bag
}

// NewManager attaches a token manager to the dapplet, connected to the
// given allocator control inbox.
func NewManager(d *core.Dapplet, alloc wire.InboxRef) *Manager {
	return &Manager{d: d, c: svc.NewCaller(d), alloc: alloc, holds: make(Bag)}
}

// Grant describes a satisfied request: the tokens received and, for each
// colour, the cumulative grant serial — a total order over acquisitions
// usable as a sequencer.
type Grant struct {
	Tokens  Bag
	Serials map[Color]uint64
}

// Request suspends until the requested tokens (a specified number for
// each colour) are available, then adds them to holdsTokens. If the token
// managers detect a deadlock, ErrDeadlock is raised. If ctx ends first,
// Request returns ctx.Err() and the request is withdrawn: should the
// allocator grant it anyway, the tokens go straight back.
func (m *Manager) Request(ctx context.Context, want Bag) error {
	_, err := m.request(ctx, want.Copy().Normalize(), nil)
	return err
}

// RequestGrant is Request but returns the grant's serial numbers.
func (m *Manager) RequestGrant(ctx context.Context, want Bag) (Grant, error) {
	return m.request(ctx, want.Copy().Normalize(), nil)
}

// RequestAll suspends until every token of the given colour is held by
// this dapplet, returning how many were acquired.
func (m *Manager) RequestAll(ctx context.Context, c Color) (int, error) {
	g, err := m.request(ctx, nil, []Color{c})
	if err != nil {
		return 0, err
	}
	return g.Tokens[c], nil
}

func (m *Manager) request(ctx context.Context, want Bag, allOf []Color) (Grant, error) {
	if err := ctx.Err(); err != nil {
		return Grant{}, err
	}
	p, err := m.c.Send(m.alloc, "", &reqMsg{Client: m.d.Name(), Stamp: m.d.Clock().StampTick(), Want: want, AllOf: allOf})
	if err != nil {
		return Grant{}, err
	}
	// The allocator books a grant to this dapplet when it sends it; one
	// that lands after ctx ended is released rather than stranded.
	p.OnLate(func(resp wire.Msg, _ error) {
		if g, ok := resp.(*grantMsg); ok {
			_ = m.c.Cast(m.alloc, "", &relMsg{Client: m.d.Name(), Give: g.Granted})
		}
	})
	var g grantMsg
	if err := p.Await(ctx, &g); err != nil {
		return Grant{}, serviceErr(err)
	}
	m.mu.Lock()
	m.holds.Add(g.Granted)
	m.mu.Unlock()
	return Grant{Tokens: g.Granted, Serials: g.Serials}, nil
}

// serviceErr maps the allocator's typed refusals and a stopped dapplet to
// the package's errors.
func serviceErr(err error) error {
	var se *svc.Error
	if errors.As(err, &se) {
		switch se.Code {
		case codeDeadlock:
			return fmt.Errorf("%w: %s", ErrDeadlock, se.Msg)
		case codeUnknownColor:
			return fmt.Errorf("%w: %s", ErrUnknownColor, se.Msg)
		}
	}
	if errors.Is(err, core.ErrStopped) {
		return ErrClosed
	}
	return err
}

// Release returns the specified tokens to the token managers, decrementing
// holdsTokens. If the tokens are not all held, ErrNotHeld is raised and
// nothing is released.
func (m *Manager) Release(give Bag) error {
	give = give.Copy().Normalize()
	m.mu.Lock()
	if !m.holds.Sub(give) {
		m.mu.Unlock()
		return fmt.Errorf("%w: have %v, releasing %v", ErrNotHeld, m.holds.Copy(), give)
	}
	m.mu.Unlock()
	return m.c.Cast(m.alloc, "", &relMsg{Client: m.d.Name(), Give: give})
}

// ReleaseAll returns every held token.
func (m *Manager) ReleaseAll() error {
	m.mu.Lock()
	give := m.holds.Copy()
	m.mu.Unlock()
	if give.IsEmpty() {
		return nil
	}
	return m.Release(give)
}

// Holds returns a copy of holdsTokens.
func (m *Manager) Holds() Bag {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.holds.Copy()
}

// TotalTokens returns the total number of tokens of all colours in the
// system.
func (m *Manager) TotalTokens(ctx context.Context) (Bag, error) {
	var rep totalRepMsg
	if err := m.c.Call(ctx, m.alloc, &totalReqMsg{}, &rep); err != nil {
		return nil, serviceErr(err)
	}
	return rep.Total, nil
}
