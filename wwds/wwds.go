// Package wwds is the public facade of the world-wide distributed system
// reproduced from Chandy et al., "A World-Wide Distributed System Using
// Java and the Internet" (HPDC 1996): a single import for the names the
// examples and the README use — the simulated network, dapplets and their
// messages, failure detection, checkpoints and the directory service.
// It re-exports nothing else; a re-export needs a user there
// (TestReexportsHaveUsers), and code inside this module reaches the rest
// of the service suite (tokens, clocks, snapshots, RPC, synchronization)
// through its internal packages.
//
// Quick start (see examples/quickstart for a complete program):
//
//	net := wwds.NewNetwork(wwds.WithSeed(1))
//	ep, _ := net.Host("caltech").BindAny()
//	d := wwds.NewDapplet("mani", "demo", wwds.NewSimConn(ep))
//	in := d.Inbox("mail")
//	...
package wwds

import (
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/transport"
	"repro/internal/wire"
)

// NewNetwork creates a simulated world-wide datagram network.
var NewNetwork = netsim.New

// Network options and delay profiles.
var (
	// WithSeed fixes the simulator's random seed for reproducible runs.
	WithSeed = netsim.WithSeed
	// WithShards sets the number of delivery shards (default GOMAXPROCS);
	// WithShards(1) makes a single-threaded run fully deterministic per
	// seed.
	WithShards = netsim.WithShards
	// WithDefaultDelay sets the delay model for unconfigured links.
	WithDefaultDelay = netsim.WithDefaultDelay
	// WithTimeScale sets the real-time to virtual-delay ratio (0, the
	// default, delivers at once; 1.0 waits out every modelled delay).
	WithTimeScale = netsim.WithTimeScale
	// WAN is the wide-area delay profile.
	WAN = netsim.WAN
)

// NewDapplet creates a dapplet — a process with globally addressable
// inboxes, outboxes and a logical clock — on a datagram socket.
var NewDapplet = core.NewDapplet

// NewSimConn adapts a simulated endpoint to the dapplet's datagram socket.
var NewSimConn = transport.NewSimConn

// Text is a ready-made plain-text message.
type Text = wire.Text

// InboxRef is the global address of an inbox.
type InboxRef = wire.InboxRef

// Failure detection: BFD-style heartbeats with per-peer adaptive
// timeouts and an up -> suspect -> down verdict per peer.
type (
	// FailureConfig tunes a detector (interval, multiplier, incarnation).
	FailureConfig = failure.Config
	// FailureEvent is one verdict change for a watched peer.
	FailureEvent = failure.Event
)

// AttachFailureDetector equips a dapplet with a heartbeat failure
// detector.
var AttachFailureDetector = failure.Attach

// Peer liveness verdicts.
const (
	// PeerUp means heartbeats are arriving within the detection time.
	PeerUp = failure.Up
	// PeerDown means the watcher committed to the failure verdict.
	PeerDown = failure.Down
)

// LastCheckpoint reads the most recent durable local checkpoint from a
// store that survived a crash.
var LastCheckpoint = snapshot.LastCheckpoint

// DirEntry is one directory registration.
type DirEntry = directory.Entry

// The directory service: a process-local registry, or replicas hosted on
// dapplets behind a caching, failing-over client.
var (
	// NewDirectory creates an empty process-local directory.
	NewDirectory = directory.New
	// ServeDirectory hosts a directory replica on a dapplet.
	ServeDirectory = directory.Serve
	// NewDirectoryCluster builds a cluster description from per-shard
	// replica service refs.
	NewDirectoryCluster = directory.NewCluster
	// NewDirectoryClient attaches a caching directory client to a dapplet.
	NewDirectoryClient = directory.NewClient
	// WithDirectoryTimeout sets a directory client's per-replica request
	// timeout (the failover latency after a replica crash).
	WithDirectoryTimeout = directory.WithClientTimeout
	// BindDirectoryFailures wires a failure detector into a directory
	// replica: a Down verdict expires a registered dapplet's entry.
	BindDirectoryFailures = failure.BindDirectory
)

// NewInitiator creates a session initiator resolving participants through
// either directory.
var NewInitiator = session.NewInitiator
