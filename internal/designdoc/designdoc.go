// Package designdoc implements the paper's second example application
// (§2.1): collaborative distributed design. "Each member of the design
// team has a dapplet responsible for managing that member's part of the
// design. Management of design documents requires that modifications to
// parts of the document are communicated to appropriate members of the
// design team." The session lasts as long as the design.
//
// A document is a set of named parts. Every designer keeps a replica of
// the parts it is interested in; an edit acquires the part's token (§4.1)
// so at most one designer modifies a part at a time, bumps the part's
// version, persists it, and multicasts the change to the team. Interested
// receivers apply versions monotonically, so all replicas of a part
// converge.
package designdoc

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tokens"
	"repro/internal/wire"
)

// Inbox/outbox names of the design session wiring.
const (
	// UpdatesInbox receives part-change notifications at each designer.
	UpdatesInbox = "design-in"
	// UpdatesOutbox multicasts a designer's edits to the team.
	UpdatesOutbox = "design-out"
	// PartsVar is the store variable holding the replica.
	PartsVar = "design.parts"
)

// ErrNotInterested is returned when editing a part outside the designer's
// interest set.
var ErrNotInterested = errors.New("designdoc: part not in interest set")

// Part is one versioned piece of the document.
type Part struct {
	Name    string
	Version int
	Text    string
	Editor  string
}

func appendPart(dst []byte, p Part) []byte {
	dst = wire.AppendString(dst, p.Name)
	dst = wire.AppendVarint(dst, int64(p.Version))
	dst = wire.AppendString(dst, p.Text)
	return wire.AppendString(dst, p.Editor)
}

func readPart(r *wire.Reader) Part {
	return Part{Name: r.String(), Version: int(r.Varint()), Text: r.String(), Editor: r.String()}
}

// Parts is a designer's replica, keyed by part name; PartsVar holds it
// in its binary form.
type Parts map[string]Part

// AppendBinary appends the replica's stored form: a count, then each
// part as an edit carries it, in name order. Its error is always nil.
func (ps Parts) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(ps)))
	for _, name := range slices.Sorted(maps.Keys(ps)) {
		dst = appendPart(dst, ps[name])
	}
	return dst, nil
}

// UnmarshalBinary replaces *ps with the replica data holds. Names out of
// order, or repeated, are an error: each replica has one encoding.
func (ps *Parts) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	n := r.Count()
	*ps = make(Parts, n)
	prev := ""
	for i := range n {
		p := readPart(r)
		if i > 0 && p.Name <= prev {
			return fmt.Errorf("designdoc: part %q follows %q", p.Name, prev)
		}
		(*ps)[p.Name], prev = p, p.Name
	}
	return r.Done()
}

// editMsg announces a new part version.
type editMsg struct {
	Part Part
}

// Kind implements wire.Msg.
func (*editMsg) Kind() string { return "design.edit" }

// AppendBinary implements wire.Msg.
func (m *editMsg) AppendBinary(dst []byte) ([]byte, error) {
	return appendPart(dst, m.Part), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *editMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Part = readPart(r)
	return r.Done()
}

func init() { wire.Register(&editMsg{}) }

// TokenColor returns the token colour guarding a part.
func TokenColor(part string) tokens.Color { return tokens.Color("part:" + part) }

// Designer is the design-team dapplet behaviour.
type Designer struct {
	interests map[string]bool

	mu    sync.Mutex
	parts Parts
	d     *core.Dapplet
	tok   *tokens.Manager
	cond  *sync.Cond
}

// NewDesigner creates a designer interested in the given parts.
func NewDesigner(interests []string) *Designer {
	ds := &Designer{
		interests: make(map[string]bool, len(interests)),
		parts:     make(Parts),
	}
	for _, p := range interests {
		ds.interests[p] = true
	}
	ds.cond = sync.NewCond(&ds.mu)
	return ds
}

// Start implements core.Behavior: it loads the persisted replica and
// subscribes to team updates.
func (ds *Designer) Start(d *core.Dapplet) error {
	ds.d = d
	var persisted Parts
	if data, ok := d.Store().Get(PartsVar); ok && persisted.UnmarshalBinary(data) == nil {
		ds.mu.Lock()
		ds.parts = persisted
		ds.mu.Unlock()
	}
	d.Handle(UpdatesInbox, ds.onUpdate)
	return nil
}

// UseTokens wires the designer to a token allocator so edits take the
// part's write token; without it edits are unsynchronized.
func (ds *Designer) UseTokens(alloc wire.InboxRef) {
	ds.tok = tokens.NewManager(ds.d, alloc)
}

func (ds *Designer) onUpdate(env *wire.Envelope) {
	m, ok := env.Body.(*editMsg)
	if !ok {
		return
	}
	ds.apply(m.Part)
}

func (ds *Designer) apply(p Part) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if !ds.interests[p.Name] {
		return // not an appropriate member for this part
	}
	if cur, ok := ds.parts[p.Name]; ok && cur.Version >= p.Version {
		return
	}
	ds.parts[p.Name] = p
	ds.cond.Broadcast()
}

func (ds *Designer) persist() {
	ds.mu.Lock()
	data, _ := ds.parts.AppendBinary(nil) // its error is always nil
	ds.mu.Unlock()
	ds.d.Store().Set(PartsVar, data)
}

// Edit modifies a part: it takes the part's write token (when a token
// manager is wired), assigns the next version, persists, and notifies the
// team. With tokens, the version is the grant serial — the allocator's
// total order over acquisitions — so concurrent editors can never mint
// the same version even while their replicas lag. ctx bounds the wait for
// the token.
func (ds *Designer) Edit(ctx context.Context, part, text string) (Part, error) {
	if !ds.interests[part] {
		return Part{}, fmt.Errorf("%w: %q", ErrNotInterested, part)
	}
	var version int
	if ds.tok != nil {
		g, err := ds.tok.RequestGrant(ctx, tokens.Bag{TokenColor(part): 1})
		if err != nil {
			return Part{}, err
		}
		defer func() { _ = ds.tok.Release(tokens.Bag{TokenColor(part): 1}) }()
		version = int(g.Serials[TokenColor(part)])
	}
	ds.mu.Lock()
	if version == 0 { // unsynchronized mode: local counter
		version = ds.parts[part].Version + 1
	}
	p := Part{Name: part, Version: version, Text: text, Editor: ds.d.Name()}
	if cur, ok := ds.parts[part]; !ok || version > cur.Version {
		ds.parts[part] = p
		ds.cond.Broadcast()
	}
	ds.mu.Unlock()
	ds.persist()
	return p, ds.d.Outbox(UpdatesOutbox).Send(&editMsg{Part: p})
}

// Part returns the designer's replica of a part.
func (ds *Designer) Part(name string) (Part, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	p, ok := ds.parts[name]
	return p, ok
}

// WaitVersion blocks until the replica of a part reaches at least the
// given version, reporting whether it did before the timeout.
func (ds *Designer) WaitVersion(name string, version int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() { ds.cond.Broadcast() })
	defer timer.Stop()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for {
		if p, ok := ds.parts[name]; ok && p.Version >= version {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		ds.cond.Wait()
	}
}
