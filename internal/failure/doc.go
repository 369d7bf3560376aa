// Package failure implements heartbeat-based failure detection for
// dapplets, the piece the paper's fault-tolerance story (§4.2) assumes
// but does not specify: checkpointing is only useful when somebody
// notices that a process has died and arranges its restart.
//
// The design follows the shape of BFD (RFC 5880, "Bidirectional
// Forwarding Detection"), adapted from links to dapplets: each
// participant transmits periodic heartbeats to the peers that watch it,
// and each watcher declares a peer down after a detection time of
// Multiplier × Interval (BFD's DetectMult × the transmit interval,
// RFC 5880 §6.8.4) in which it has heard nothing from the peer. The
// interval stretches with the jitter of the peer's heartbeats (smoothed
// spacing plus four deviations), which a loaded host's scheduling adds;
// path latency delays every heartbeat alike and stretches nothing. Two
// departures from classic BFD fit the dapplet world:
//
//   - Any frame counts as hearing from a peer, not only a heartbeat (the
//     transport's Reliable.LastHeard), and no heartbeat goes to a peer
//     the transport sent another frame within the interval
//     (Reliable.LastSent): heartbeats flow on idle channels only.
//
//   - Verdicts pass through an intermediate Suspect state before Down
//     (suspect after one detection time, down after a second), giving
//     applications a cheap early warning they can use to, e.g., stop
//     routing new work to a peer before committing to recovery. Hearing
//     the peer lifts Suspect at the next heartbeat round; only an
//     incarnation-carrying beacon (a heartbeat, a probe or its reply)
//     lifts Down.
//
// Heartbeats carry an incarnation number so a watcher can distinguish
// "the peer recovered" from "a restarted instance of the peer took its
// place"; the restarted instance's new address is learned from the
// heartbeat envelope itself, so watching survives a crash/restart cycle
// that rebinds the peer to a fresh port.
//
// The "@fail" inbox is served through the svc framework (internal/svc):
// heartbeats stay bare one-way beacons, while peers held Down are sent
// a correlated address-learning probe at a slow rate — a request/reply
// whose answer (name plus incarnation) lifts the verdict even when the
// probed peer does not watch back, and whose arrival doubles as
// liveness evidence for the probed side.
//
// The verdict rules are a pure state machine (verdict.go): each
// transition takes the time and the transport's readings and returns
// what to do (events, heartbeat targets, relays to ask, a rumour, a
// probe, timer delays), with no lock, goroutine, I/O or clock, so its
// tests run on a virtual clock. The Detector drives it: under its lock
// it runs a transition, moves the runtime timers it names (one per
// watched peer, re-armed lazily, and one for heartbeat rounds, as in
// BFD's one detection timer per session) and spawns its probe; sends and
// observer deliveries follow on a process-wide work queue whose few
// goroutines exist only while it is non-empty (work.go), so no goroutine
// waits while the detector is idle, and none runs once it has stopped.
//
// A Detector is attached to a dapplet (Attach) and told whom to watch
// (Watch); state changes are delivered to OnEvent observers and queried
// with Status. BindSession forwards verdicts into the dapplet's session
// service so live rosters reflect peer liveness (see internal/session).
package failure
