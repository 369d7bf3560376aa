package tokens

import "context"

// RWLock is the paper's reader/writer protocol built on tokens (§4.1):
// "The object is associated with a token color. A dapplet writes the
// object only if it has all tokens associated with the object, and a
// dapplet reads the object only if it has at least one token associated
// with the object."
type RWLock struct {
	m     *Manager
	color Color
}

// NewRWLock builds a reader/writer lock over the given colour, which must
// exist in the allocator's population with one token per permitted
// concurrent reader.
func NewRWLock(m *Manager, color Color) *RWLock {
	return &RWLock{m: m, color: color}
}

// RLock acquires one token of the colour, permitting a read concurrent
// with other reads but excluding writes.
func (l *RWLock) RLock(ctx context.Context) error {
	return l.m.Request(ctx, Bag{l.color: 1})
}

// RUnlock releases the read token.
func (l *RWLock) RUnlock() error {
	return l.m.Release(Bag{l.color: 1})
}

// Lock acquires every token of the colour, excluding all readers and
// writers.
func (l *RWLock) Lock(ctx context.Context) error {
	_, err := l.m.RequestAll(ctx, l.color)
	return err
}

// Unlock releases every token of the colour this dapplet holds.
func (l *RWLock) Unlock() error {
	n := l.m.Holds()[l.color]
	if n == 0 {
		return ErrNotHeld
	}
	return l.m.Release(Bag{l.color: n})
}
