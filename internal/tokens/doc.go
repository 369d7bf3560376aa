// Package tokens implements the paper's generic resource service (§4.1
// "Tokens and Capabilities"): "Tokens are objects that are neither created
// nor destroyed: a fixed number of them are communicated and shared among
// the processes of a system. Tokens have colors; tokens of one color
// cannot be transmuted into tokens of another color. A token represents an
// indivisible resource and a token color is a resource type."
//
// A network of token managers serves a session: an allocator service runs
// on one dapplet and a Manager proxy runs on each participant. A dapplet
// can request tokens (suspending until they are available, with a deadlock
// exception if the token managers detect deadlock), release tokens, and
// query the total number of tokens of all colors. Conflicting requests are
// resolved in favour of the earlier logical timestamp, ties broken by the
// lower process id (§4.2).
//
// Both ends ride the svc request/reply framework: the allocator is a
// handler table on "@tokens" that answers a queued request through its
// deferred reply when a later release or request makes it grantable, and
// each Manager owns an svc caller, so several managers share a dapplet.
// A request is context-first; one whose context ends before its grant
// arrives hands the late grant back to the allocator.
//
// Deadlock detection uses resource-allocation-graph reduction (Coffman):
// assuming every non-blocked dapplet eventually releases its tokens, any
// blocked request that cannot be satisfied even after all completable
// dapplets release everything is deadlocked, and the exception is raised
// to every request in the deadlocked set.
package tokens
