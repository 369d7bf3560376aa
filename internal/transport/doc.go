// Package transport provides the datagram transports the distributed layer
// runs over, and the reliable ordered-delivery layer the paper describes:
// "The initial implementation uses UDP and it includes a layer to ensure
// that messages are delivered in the order they were sent" (§3.2).
//
// Two transports are provided: a simulated one over netsim (used by tests
// and benchmarks so world-wide conditions are reproducible) and a real one
// over net.UDPConn. The reliable layer is transport-agnostic: it numbers
// messages per destination, acknowledges receipt, retransmits what the
// acknowledgements show to be lost (and, behind that, on a measured
// timeout), discards duplicates, and hands messages to the sink given to
// NewReliable strictly in send order, on the receive goroutine, so
// nothing the sink runs may wait on the network.
//
// The protocol of one peer's channel is a pure state machine (channel.go:
// send, receive, tick, deadline) that takes no lock, starts no goroutine,
// does no I/O and reads no clock. Reliable drives one per peer under that
// peer's own mutex, writes what it returns after unlocking, and keeps one
// runtime timer per peer set to its deadline, so no goroutine but the
// receive loop waits. Tests drive two machines on a virtual clock.
//
// Send never waits: past a full window a frame joins the peer's bounded
// backlog (ErrBacklog past the bound) until acknowledgements open the
// window. SendOwed is Send for a frame that must reach the peer (a
// relay forward, a snapshot marker): past the bound it joins the
// backlog all the same. AwaitWindow (or SendWait) is the one wait, for
// application threads; never the sink's or a timer's (internal/lint
// checks). A frame given up on after MaxRetries (Stats.Failures) does not
// wedge the channel: while the peer has not acknowledged past it, the
// sender's datagrams carry a floor, and the peer skips it
// (Stats.Skipped) and delivers the frames after it, in order.
//
// Every datagram has one layout (batch.go): the acknowledgement the peer
// is owed, if any, the floor, if any, then any number of frames; without
// frames it is a bare ack. Acknowledgements are cumulative and delayed
// (after 8 in-order frames or AckDelay), with the reorder buffer as a
// bitmap while a gap is open. A frame carries its channel header only
// when it differs from the previous frame's to that peer. Small frames
// are coalesced on an ack clock: once 8 frames are unacknowledged,
// further small frames are staged and leave as one datagram of at most
// 1200 bytes of frames when the next acknowledgement arrives (or the
// batch or the window fills). Reliable.Send has the rule in full.
//
// An acknowledged frame goes on its peer's free list, bounded by Window,
// and the next Send builds its frame in that buffer, so a steady stream
// allocates nothing per message here; a frame still staged or backlogged
// is never reused.
package transport
