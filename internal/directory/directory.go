// Package directory implements the address directory an initiator uses to
// set up a session (§3.1, Fig. 2): "the center director invokes an
// initiator dapplet and passes it a directory of addresses (e.g. Internet
// IP addresses and ports) of component dapplets that are to be linked
// together into a session." The paper does not address how the directory
// is maintained; we provide two interchangeable implementations behind
// the Resolver interface:
//
//   - Directory, a process-local map — the fast path for single-process
//     worlds, with no network traffic and therefore no effect on seeded
//     replay.
//   - The dapplet-hosted service (Serve, Cluster, Client): the name space
//     is prefix-sharded across replica dapplets, registrations fan to
//     every replica of the owning shard, lookups are cached at the client
//     under write stamps and refreshed by pushed watch events, and a
//     failure detector's Down verdict expires a dead dapplet's entries
//     (failure.BindDirectory).
package directory

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/netsim"
)

// Entry describes one registered dapplet.
type Entry struct {
	// Name is the dapplet's instance name, unique in the directory.
	Name string
	// Type is the dapplet's behaviour type ("calendar", "secretary").
	Type string
	// Addr is the dapplet's global address.
	Addr netsim.Addr
}

// Resolver is the registration and lookup API shared by the
// process-local Directory and the replicated-service Client; initiators
// and scenarios accept either. Every method takes a context: the
// service-backed Client blocks on the network and honours cancellation
// and deadlines, while the process-local Directory answers from memory
// and ignores the context.
type Resolver interface {
	// Register adds or replaces an entry.
	Register(ctx context.Context, e Entry) error
	// Remove deletes an entry by name; removing an unknown name is not
	// an error.
	Remove(ctx context.Context, name string) error
	// Lookup finds an entry by name.
	Lookup(ctx context.Context, name string) (Entry, bool)
	// MustLookup is Lookup but returns an error naming the missing
	// dapplet.
	MustLookup(ctx context.Context, name string) (Entry, error)
}

// Directory is a thread-safe process-local name -> address registry: the
// Resolver fast path for worlds that live in one process.
type Directory struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// New returns an empty directory.
func New() *Directory { return &Directory{entries: make(map[string]Entry)} }

// Register adds or replaces an entry. The context is ignored (the map is
// local); the error is always nil. Both exist to satisfy Resolver.
func (d *Directory) Register(_ context.Context, e Entry) error {
	d.mu.Lock()
	d.entries[e.Name] = e
	d.mu.Unlock()
	return nil
}

// Remove deletes an entry by name. The context is ignored; the error is
// always nil. Both exist to satisfy Resolver.
func (d *Directory) Remove(_ context.Context, name string) error {
	d.mu.Lock()
	delete(d.entries, name)
	d.mu.Unlock()
	return nil
}

// Lookup finds an entry by name. The context is ignored (the map answers
// from memory).
func (d *Directory) Lookup(_ context.Context, name string) (Entry, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[name]
	return e, ok
}

// MustLookup is Lookup but returns an error naming the missing dapplet.
func (d *Directory) MustLookup(ctx context.Context, name string) (Entry, error) {
	if e, ok := d.Lookup(ctx, name); ok {
		return e, nil
	}
	return Entry{}, fmt.Errorf("directory: no dapplet named %q", name)
}

// Len returns the number of entries.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}
