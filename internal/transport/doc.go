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
// timeout), discards duplicates, and releases messages to the application
// strictly in send order — exactly the guarantees the paper's channel
// abstraction assumes of its UDP layer.
//
// The layer is sharded by peer: each peer's window, unacked set and
// reordering buffer live under that peer's own mutex, acknowledgements
// are cumulative and coalesced (after AckEvery messages or AckDelay,
// whichever first) and carry the reorder buffer as a bitmap while a gap
// is open, and a single timer goroutine drives the backstop
// retransmission timer from a min-heap of per-peer deadlines, so cost is
// proportional to peers with due packets rather than to all in-flight
// traffic.
package transport
