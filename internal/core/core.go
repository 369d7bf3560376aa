// Package core implements the paper's primary contribution: the dapplet —
// "a process used in a collaborative distributed application" (§1) — and
// its communication structure of inboxes, outboxes and channels (§3.2).
//
// A dapplet operates in a single address space and communicates with other
// dapplets through ports. Each dapplet has a set of inboxes and a set of
// outboxes, which are message queues. An outbox is bound to a set of
// inboxes; there is a directed FIFO channel from the outbox to each bound
// inbox, and Send copies the message at the head of the outbox along every
// channel. Inboxes are addressable globally by the dapplet's address (host
// and port) plus a name, and locally by reference.
//
// The runtime (Runtime, Registry) models the paper's deployment story —
// "programs corresponding to each process type are installed on the
// appropriate machines" — with a behaviour plugin registry, since Go has
// no dynamic code loading.
package core

import "errors"

// Errors returned by the dapplet runtime.
var (
	// ErrStopped is returned by operations on a stopped dapplet or a
	// closed inbox.
	ErrStopped = errors.New("core: dapplet stopped")
	// ErrNotBound is returned when deleting an address an outbox is not
	// bound to; it corresponds to the paper's delete exception.
	ErrNotBound = errors.New("core: address not in outbox binding list")
	// ErrNoSuchInbox is returned when looking up an inbox name the
	// dapplet does not have.
	ErrNoSuchInbox = errors.New("core: no such inbox")
	// ErrNotInstalled is returned by Launch when the dapplet type has not
	// been installed on the target host.
	ErrNotInstalled = errors.New("core: dapplet type not installed on host")
	// ErrUnknownType is returned for behaviour types missing from the
	// registry.
	ErrUnknownType = errors.New("core: unknown dapplet type")
)
