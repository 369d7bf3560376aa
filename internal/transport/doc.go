// Package transport provides the datagram transports the distributed layer
// runs over, and the reliable ordered-delivery layer the paper describes:
// "The initial implementation uses UDP and it includes a layer to ensure
// that messages are delivered in the order they were sent" (§3.2).
//
// Two transports are provided: a simulated one over netsim (used by tests
// and benchmarks so world-wide conditions are reproducible) and a real one
// over net.UDPConn (used by the demo binaries on loopback or a real
// network). The reliable layer is transport-agnostic: it numbers
// messages per destination, acknowledges receipt, retransmits what the
// acknowledgements show to be lost (and, behind that, on a measured
// timeout), discards duplicates, and hands messages to the sink given to
// NewReliable strictly in send order — exactly the guarantees the
// paper's channel abstraction assumes of its UDP layer. The receive
// goroutine calls the sink itself, with no queue or goroutine between,
// so nothing the sink runs may wait on the network.
//
// Send never waits: past a full window a frame joins the peer's bounded
// backlog (ErrBacklog past the bound) until acknowledgements open the
// window. SendOwed is Send for a frame that must reach the peer (a
// relay forward, a snapshot marker): past the bound it joins the
// backlog all the same, so the backlog is the one queue of frames owed
// to a peer. AwaitWindow (or SendWait) is the one wait, for application
// threads; never the sink's or a timer's (internal/lint checks).
//
// The layer is sharded by peer: each peer's window, unacked set and
// reordering buffer live under that peer's own mutex, acknowledgements
// are cumulative and coalesced (after 8 messages or AckDelay, whichever
// first) and carry the reorder buffer as a bitmap while a gap is open.
// Each peer has at most two runtime timers, for the backstop
// retransmission and the delayed ack, so no goroutine but the receive
// loop waits.
//
// Every datagram has one layout: a header holding the acknowledgement the
// peer is owed, if any, then any number of frames. A datagram without
// frames is a bare ack; retransmissions are packed like first
// transmissions. A message is a channel header and a payload (Send's hdr
// and payload), and a frame carries the header only when it differs from
// the header of the frame sent to that peer just before: both ends keep
// the last header per peer and move it in seq order, so loss, reordering
// and retransmission need no rule of their own, and the receiver restores
// a left-out header when the frame becomes in-order. Small frames are coalesced on an ack clock: once 8
// frames to a peer are unacknowledged — so its next acknowledgement is on
// its way without waiting for AckDelay — further small frames are staged
// and leave as one datagram of at most 1200 bytes of frames when that
// acknowledgement arrives (or the batch fills, or the window does). No
// frame waits for a timer of its own, a frame sent into a quiet channel
// is written at once, and every datagram carries any acknowledgement its
// peer is owed. Reliable.Send has the rule in full.
//
// An acknowledged frame goes on its peer's free list, bounded by Window,
// and the next Send builds its frame in that buffer, so a steady stream
// allocates nothing per message here; so does a frame given up on after
// MaxRetries (counted in Stats.Failures), and a frame still staged or
// backlogged is never reused.
package transport
