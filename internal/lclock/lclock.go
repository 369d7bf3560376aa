// Package lclock implements the paper's clock service (§4.2 "Clocks"):
// logical clocks that satisfy the global snapshot criterion — "every
// message that is sent when the sender's clock is T is received when the
// receiver's clock exceeds T" — using Lamport's algorithm: "every message
// is timestamped with the sender's clock; upon receiving a message, if the
// receiver's clock value does not exceed the timestamp of the message then
// the receiver's clock is set to a value greater than the timestamp."
//
// Clocks built this way can be used for checkpointing and distributed
// conflict resolution "just as though they were global clocks". The
// package also provides the paper's tie-breaking rule (earlier timestamp
// wins; ties broken in favour of the lower process id).
package lclock

import (
	"fmt"
	"sync"
)

// Clock is a Lamport logical clock. The zero value is not usable; create
// clocks with New. All methods are safe for concurrent use.
type Clock struct {
	id string
	mu sync.Mutex
	t  uint64
}

// New returns a clock owned by the process with the given id.
func New(id string) *Clock { return &Clock{id: id} }

// Now returns the current clock value without advancing it.
func (c *Clock) Now() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Tick advances the clock for a local event and returns the new value.
func (c *Clock) Tick() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t++
	return c.t
}

// StampSend advances the clock and returns the timestamp to attach to an
// outgoing message.
func (c *Clock) StampSend() uint64 { return c.Tick() }

// ObserveRecv merges an incoming message's timestamp: the clock is set to
// a value strictly greater than the timestamp if it does not already
// exceed it, establishing the global snapshot criterion. It returns the
// clock value after the merge.
func (c *Clock) ObserveRecv(ts uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t <= ts {
		c.t = ts + 1
	}
	return c.t
}

// StampTick advances the clock and returns the resulting (time, id) pair,
// suitable for timestamping a new request.
func (c *Clock) StampTick() Stamp {
	return Stamp{Time: c.Tick(), ID: c.id}
}

// Stamp is a totally ordered logical timestamp: requests for a common
// indivisible resource are "resolved in favor of the request with the
// earlier timestamp; ties are broken in favor of the process with the
// lower id" (§4.2).
type Stamp struct {
	Time uint64
	ID   string
}

// Less reports whether s precedes o in the total order.
func (s Stamp) Less(o Stamp) bool {
	if s.Time != o.Time {
		return s.Time < o.Time
	}
	return s.ID < o.ID
}

// String renders the stamp for logs.
func (s Stamp) String() string { return fmt.Sprintf("%d@%s", s.Time, s.ID) }
