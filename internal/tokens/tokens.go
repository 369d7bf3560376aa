package tokens

import (
	"errors"

	"repro/internal/svc"
)

// Color is a resource type; tokens of one colour cannot be transmuted
// into tokens of another colour.
type Color string

// Bag is a multiset of tokens by colour. A Bag never contains
// non-positive counts (such entries are dropped by Normalize).
type Bag map[Color]int

// Copy returns an independent copy of b.
func (b Bag) Copy() Bag {
	out := make(Bag, len(b))
	for c, n := range b {
		out[c] = n
	}
	return out
}

// Normalize removes non-positive entries in place and returns b.
func (b Bag) Normalize() Bag {
	for c, n := range b {
		if n <= 0 {
			delete(b, c)
		}
	}
	return b
}

// Add folds o into b.
func (b Bag) Add(o Bag) {
	for c, n := range o {
		b[c] += n
	}
	b.Normalize()
}

// Sub removes o from b; it reports false (leaving b unchanged) if b does
// not contain o.
func (b Bag) Sub(o Bag) bool {
	if !b.Contains(o) {
		return false
	}
	for c, n := range o {
		b[c] -= n
	}
	b.Normalize()
	return true
}

// Contains reports whether b has at least o of every colour.
func (b Bag) Contains(o Bag) bool {
	for c, n := range o {
		if b[c] < n {
			return false
		}
	}
	return true
}

// Count returns the total number of tokens across colours.
func (b Bag) Count() int {
	t := 0
	for _, n := range b {
		t += n
	}
	return t
}

// IsEmpty reports whether the bag holds no tokens.
func (b Bag) IsEmpty() bool { return b.Count() == 0 }

// Errors raised by the token service.
var (
	// ErrDeadlock is the paper's exception: "If the token managers detect
	// a deadlock, an exception is raised."
	ErrDeadlock = errors.New("tokens: deadlock detected")
	// ErrNotHeld is raised when releasing tokens the dapplet does not
	// hold: "If the tokens specified in tokenList are not in holdsTokens,
	// an exception is raised."
	ErrNotHeld = errors.New("tokens: releasing tokens not held")
	// ErrUnknownColor is raised when requesting a colour that does not
	// exist in the system.
	ErrUnknownColor = errors.New("tokens: unknown color")
	// ErrClosed is returned after the manager's dapplet stops.
	ErrClosed = errors.New("tokens: closed")
)

// AllocInbox is the allocator's svc-served control inbox.
const AllocInbox = "@tokens"

// Service error codes a refused request carries back through the svc
// reply; Manager maps them to ErrDeadlock and ErrUnknownColor.
const (
	codeDeadlock     = svc.CodeUser + 0
	codeUnknownColor = svc.CodeUser + 1
)
