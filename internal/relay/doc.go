// Package relay implements tree-structured session multicast: instead of
// the outbox's flat O(N) per-destination fan-out (§3.2), a session's
// participants are arranged in a deterministic fanout-k spanning tree and
// each message travels hop-by-hop, every node re-forwarding the
// marshal-once encoded body to its own tree neighbors. The sender's cost
// drops from O(N) encodes+sends to O(k), and the per-node send queue is
// bounded by the fanout rather than the group size — the shape toxcore's
// group relays take, applied to the paper's outbox/inbox model.
//
// The tree is derived purely from the session roster order (heap layout:
// node i's parent is (i-1)/k; see Tree), so seeded lockstep replay holds.
// Only the session initiator, which has the roster, lays it out; each
// participant is bound with its own neighbours and the tree depth
// (Binding) and never sees the rest, so joining a group of N costs a
// participant O(k), not O(N). Frames carry the original sender's name,
// address and Lamport stamp; delivery synthesizes an envelope
// indistinguishable from a direct send, so FIFO-per-channel semantics and
// the §4.2 clock discipline are unchanged. Per-(session, origin) sequence
// numbers give in-order, exactly-once delivery at every member, which
// makes the post-repair replay flood idempotent. A member handles each
// frame on its receive goroutine, through an inline inbox, and forwards
// it without waiting: a forward past its neighbour's window waits in the
// transport's backlog to that neighbour, which never refuses one, and
// the relay runs no thread of its own (see Relay).
package relay
