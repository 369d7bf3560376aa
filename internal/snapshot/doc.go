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
// traffic. A member records under core.Dapplet.Quiesce, which holds off
// the dapplet's sends, from any thread, between their stamp and their
// sequencing: the state, the transport's per-peer counts
// (transport.Reliable.Counts) and the markers or flushes closing every
// outgoing channel are one step, so on each FIFO channel the frames
// counted precede the marker and the others follow it. Nothing watches
// the dapplet's sends, and nothing sleeps or polls: a clock run's
// channels are closed by the flushes its members send as they record
// (Mattern's counter method, with the FIFO flush as the count), and a
// member reports once its collect, which follows the take on the
// coordinator's channel, has arrived as well.
//
// Both produce a Global snapshot whose consistency is checkable, in
// frames: for every ordered pair (p, q), the frames p had sent to q at
// p's record point must equal the frames q had received from p at q's
// record point plus the frames in the channel state. The application
// messages among the latter are captured, and encoded, only while a run
// records their channel.
package snapshot
