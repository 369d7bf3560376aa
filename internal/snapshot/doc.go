// Package snapshot implements the paper's checkpointing services (§4.2):
//
//   - Clock-based global checkpoints: "a global state can be easily
//     checkpointed: all processes checkpoint their local states at some
//     predetermined time T, and the states of the channels are the
//     sequences of messages sent on the channels before T and received
//     after T." The dapplet clocks satisfy the global snapshot criterion
//     (see package lclock), so the checkpoint is consistent.
//
//   - Chandy–Lamport marker snapshots (the paper's reference [3]): the
//     initiator records its state and sends markers on all outgoing
//     channels; a process receiving its first marker records its state,
//     records the arrival channel as empty, starts recording on other
//     incoming channels, and relays markers; recording on a channel stops
//     when its marker arrives. Channel FIFO order between dapplet pairs is
//     provided by the reliable layer.
//
// The protocols run in the receive observer, in step with each channel's
// traffic; the messages they send are queued and leave from a thread, in
// order, since the receive goroutine must not wait on the network. As
// application sends come from any thread, a queued send leaves only once
// the transport has sequenced (DataSent) every send counted before it,
// and a send counted while others are queued waits for them: a cut falls
// where the counters say. Attach while no send of the dapplet is under way.
//
// Both produce a Global snapshot whose consistency is checkable: for every
// ordered pair (p, q), the messages p had sent to q at p's record point
// must equal the messages q had received from p at q's record point plus
// the messages captured in the channel state.
package snapshot
