// Package wwds is the public facade of the world-wide distributed system:
// a single import that exposes the dapplet runtime, inbox/outbox
// communication, sessions, and the service layer (tokens, clocks,
// snapshots, RPC, synchronization) described in Chandy et al., "A
// World-Wide Distributed System Using Java and the Internet" (HPDC 1996).
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
	"repro/internal/gossip"
	"repro/internal/lclock"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/state"
	"repro/internal/svc"
	"repro/internal/syncprim"
	"repro/internal/tokens"
	"repro/internal/transport"
	"repro/internal/wire"
)

// --- network simulation ---

// Network is the simulated world-wide datagram network.
type Network = netsim.Network

// Host is a machine on the simulated network.
type Host = netsim.Host

// Addr is a global endpoint address (host and port).
type Addr = netsim.Addr

// DelayModel samples per-datagram link delays.
type DelayModel = netsim.DelayModel

// LinkParams configures a link's delay and fault injection.
type LinkParams = netsim.LinkParams

// NetOption configures a Network.
type NetOption = netsim.Option

// NewNetwork creates a simulated network.
func NewNetwork(opts ...NetOption) *Network { return netsim.New(opts...) }

// Re-exported network options and delay profiles.
var (
	// WithSeed fixes the simulator's random seed for reproducible runs.
	WithSeed = netsim.WithSeed
	// WithShards sets the number of delivery shards (default GOMAXPROCS);
	// WithShards(1) makes a single-threaded run fully deterministic per
	// seed.
	WithShards = netsim.WithShards
	// WithDefaultDelay sets the delay model for unconfigured links.
	WithDefaultDelay = netsim.WithDefaultDelay
	// WithTimeScale sets the real-time to virtual-delay ratio.
	WithTimeScale = netsim.WithTimeScale
	// WithQueueCap sets the per-endpoint receive queue capacity.
	WithQueueCap = netsim.WithQueueCap
	// Constant builds a fixed-delay model.
	Constant = netsim.Constant
	// Uniform builds a uniformly distributed delay model.
	Uniform = netsim.Uniform
	// LAN is the local-area delay profile.
	LAN = netsim.LAN
	// Campus is the campus-network delay profile.
	Campus = netsim.Campus
	// WAN is the wide-area delay profile.
	WAN = netsim.WAN
	// Intercontinental is the paper's Pasadena-to-Australia delay profile.
	Intercontinental = netsim.Intercontinental
)

// --- transport ---

// PacketConn is an unreliable datagram socket (simulated or real UDP).
type PacketConn = transport.PacketConn

// TransportConfig tunes the reliable ordered-delivery layer.
type TransportConfig = transport.Config

// NewSimConn adapts a simulated endpoint to a PacketConn.
var NewSimConn = transport.NewSimConn

// ListenUDP binds a real UDP socket (e.g. "127.0.0.1:0").
var ListenUDP = transport.ListenUDP

// --- messages ---

// Msg is the interface all transmissible messages implement: a kind name
// plus AppendBinary/UnmarshalBinary, written with the helpers below.
type Msg = wire.Msg

// Text is a ready-made plain-text message.
type Text = wire.Text

// InboxRef is the global address of an inbox.
type InboxRef = wire.InboxRef

// Envelope is the delivery metadata around a received message.
type Envelope = wire.Envelope

// RegisterMessage records a message prototype for wire reconstruction.
func RegisterMessage(proto Msg) { wire.Register(proto) }

// WireReader decodes what the Append helpers wrote; an UnmarshalBinary
// reads every field unconditionally and returns Done().
type WireReader = wire.Reader

// The codec primitives a Msg's AppendBinary/UnmarshalBinary are written
// with (see DESIGN.md "Wire codec").
var (
	// NewWireReader returns a WireReader over data.
	NewWireReader = wire.NewReader
	// AppendUvarint appends an unsigned varint.
	AppendUvarint = wire.AppendUvarint
	// AppendVarint appends a zig-zag varint (possibly-negative integers).
	AppendVarint = wire.AppendVarint
	// AppendBool appends a single 0/1 byte.
	AppendBool = wire.AppendBool
	// AppendString appends a length-prefixed string.
	AppendString = wire.AppendString
	// AppendBytes appends a length-prefixed byte slice.
	AppendBytes = wire.AppendBytes
	// AppendStringSlice appends a counted string slice.
	AppendStringSlice = wire.AppendStringSlice
	// AppendInboxRef appends a global inbox address.
	AppendInboxRef = wire.AppendInboxRef
)

// --- service framework ---

// The svc layer is the typed, context-first request/response framework
// every control plane (rpc, sessions, directory, failure probes) rides
// on; applications can build their own services on it the same way.
type (
	// SvcHandler serves one request kind on a served inbox.
	SvcHandler = svc.Handler
	// SvcHandlers is the dispatch table of one served inbox.
	SvcHandlers = svc.Handlers
	// SvcCtx carries a request's delivery context into its handler.
	SvcCtx = svc.Ctx
	// SvcServer is one svc-served inbox.
	SvcServer = svc.Server
	// SvcCaller issues context-bounded requests to served inboxes.
	SvcCaller = svc.Caller
	// SvcPending is one transmitted, not-yet-awaited request.
	SvcPending = svc.Pending
	// SvcError is a typed service error whose code survives the wire.
	SvcError = svc.Error
	// SvcCode classifies a service error; codes >= SvcCodeUser are
	// application-defined.
	SvcCode = svc.Code
)

// SvcCodeUser is the first application-defined service error code.
const SvcCodeUser = svc.CodeUser

// ServeSvc consumes an inbox and dispatches its requests to typed
// handlers.
var ServeSvc = svc.Serve

// NewSvcCaller attaches a request caller (private reply inbox plus
// correlation ids) to a dapplet.
var NewSvcCaller = svc.NewCaller

// --- dapplets ---

// Dapplet is a process in a collaborative distributed application.
type Dapplet = core.Dapplet

// Inbox is a globally addressable message queue.
type Inbox = core.Inbox

// Outbox is a message source bound to a set of inboxes.
type Outbox = core.Outbox

// Behavior is the pluggable code of a dapplet type.
type Behavior = core.Behavior

// BehaviorFunc adapts a function to Behavior.
type BehaviorFunc = core.BehaviorFunc

// Registry maps dapplet type names to behaviour factories.
type Registry = core.Registry

// Runtime launches dapplets onto simulated hosts.
type Runtime = core.Runtime

// NewDapplet creates a dapplet on a datagram socket.
var NewDapplet = core.NewDapplet

// NewRegistry creates an empty behaviour registry.
var NewRegistry = core.NewRegistry

// NewRuntime creates a runtime over a network and registry.
var NewRuntime = core.NewRuntime

// WithTransportConfig tunes a dapplet's reliable layer.
var WithTransportConfig = core.WithTransportConfig

// WithStore supplies a persistent state store to a dapplet.
var WithStore = core.WithStore

// --- directory and sessions ---

// Directory is the process-local name -> address registry initiators
// use: the fast-path DirResolver for single-process worlds.
type Directory = directory.Directory

// DirEntry is one directory registration.
type DirEntry = directory.Entry

// DirResolver is the registration/lookup interface shared by the
// process-local Directory and the replicated service's caching client;
// NewInitiator accepts either.
type DirResolver = directory.Resolver

// DirectoryService is one replica of the dapplet-hosted directory,
// served on its dapplet's "@dir" inbox.
type DirectoryService = directory.Service

// DirectoryCluster describes a deployed directory service: prefix
// shards times replicas, addressed by their service inbox refs.
type DirectoryCluster = directory.Cluster

// DirectoryClient resolves names through a replicated directory with a
// version-stamped cache invalidated by pushed watch events, failing over
// to a shard's surviving replicas.
type DirectoryClient = directory.Client

// DirectoryClientStats counts a client's cache hits/misses, failovers
// and evictions.
type DirectoryClientStats = directory.ClientStats

// NewDirectory creates an empty process-local directory.
func NewDirectory() *Directory { return directory.New() }

// ServeDirectory hosts a directory replica on a dapplet.
var ServeDirectory = directory.Serve

// NewDirectoryCluster builds a cluster description from per-shard
// replica service refs.
var NewDirectoryCluster = directory.NewCluster

// NewDirectoryClient attaches a caching directory client to a dapplet.
var NewDirectoryClient = directory.NewClient

// DirectoryClientOption configures a directory client at construction.
type DirectoryClientOption = directory.ClientOption

// WithDirectoryTimeout sets a directory client's per-replica request
// timeout (the failover latency after a replica crash).
var WithDirectoryTimeout = directory.WithClientTimeout

// DirectoryShardOf returns the shard owning a name for a given shard
// count (prefix partitioning of the hashed name space).
var DirectoryShardOf = directory.ShardOf

// BindDirectoryFailures wires a failure detector into a directory
// replica: registered dapplets are watched, a Down verdict expires their
// entries, and a reincarnation's heartbeat re-registers them at the new
// address.
var BindDirectoryFailures = failure.BindDirectory

// Session types: specs, participants, links, the initiator and the
// per-dapplet service.
type (
	// SessionSpec describes a session to initiate.
	SessionSpec = session.Spec
	// Participant is one session member.
	Participant = session.Participant
	// Link is one directed channel in a session spec.
	Link = session.Link
	// SessionPolicy configures ACLs and join/leave callbacks.
	SessionPolicy = session.Policy
	// SessionService is the per-dapplet session participant.
	SessionService = session.Service
	// SessionHandle is the initiator's view of a live session.
	SessionHandle = session.Handle
	// Initiator links dapplets into sessions.
	Initiator = session.Initiator
	// Membership is a dapplet's live participation in a session.
	Membership = session.Membership
	// SessionTreeSpec selects relay-tree multicast for a session: every
	// participant gets the named outbox bound to the session's spanning
	// tree and the named inbox created to receive broadcasts.
	SessionTreeSpec = session.TreeSpec
)

// AttachSessions equips a dapplet with the session service.
var AttachSessions = session.Attach

// NewInitiator creates a session initiator.
var NewInitiator = session.NewInitiator

// Relay multicast (see internal/relay): per-session fanout-k spanning
// trees so one Outbox.Send reaches any group size at O(k) sender cost,
// with every participant re-forwarding the marshal-once bytes to its
// own tree neighbors.
type (
	// Relay is the per-dapplet tree-multicast forwarder.
	Relay = relay.Relay
	// RelayTree is a fanout-k spanning tree over a session roster.
	RelayTree = relay.Tree
	// RelayMember is one participant in a session tree.
	RelayMember = relay.Member
	// RelayBinding installs a participant's place in one session's tree:
	// its neighbours and the tree depth, never the roster.
	RelayBinding = relay.Binding
	// RelayStats counts a relay's forwarding and delivery activity.
	RelayStats = relay.Stats
)

// AttachRelay equips a dapplet with the relay-multicast service
// (session.Attach does this automatically for tree sessions).
var AttachRelay = relay.Attach

// NewRelayTree builds the deterministic heap tree over a roster.
var NewRelayTree = relay.NewTree

// DefaultRelayFanout is the tree fanout used when a session's tree spec
// does not specify one.
const DefaultRelayFanout = relay.DefaultFanout

// --- persistent state ---

// Store is a persistent variable store with session access control.
type Store = state.Store

// AccessSet declares the variables a session reads and writes.
type AccessSet = state.AccessSet

// NewStore creates an in-memory store.
var NewStore = state.NewStore

// OpenStore creates a file-backed store.
var OpenStore = state.Open

// --- services ---

// Token service: conserved coloured tokens with deadlock detection.
type (
	// TokenColor is a resource type.
	TokenColor = tokens.Color
	// TokenBag is a multiset of tokens by colour.
	TokenBag = tokens.Bag
	// TokenAllocator owns a session's token population.
	TokenAllocator = tokens.Allocator
	// TokenManager is the per-dapplet token manager.
	TokenManager = tokens.Manager
	// RWLock is the reader/writer protocol over tokens.
	RWLock = tokens.RWLock
)

// ServeTokens starts a token allocator on a dapplet.
var ServeTokens = tokens.Serve

// NewTokenManager attaches a token manager to a dapplet.
var NewTokenManager = tokens.NewManager

// NewRWLock builds a reader/writer lock over a colour.
var NewRWLock = tokens.NewRWLock

// Logical clocks.
type (
	// Clock is a Lamport clock satisfying the global snapshot criterion.
	Clock = lclock.Clock
	// Stamp is a totally ordered logical timestamp.
	Stamp = lclock.Stamp
)

// Snapshots and checkpoints.
type (
	// SnapshotService makes a dapplet snapshot-capable.
	SnapshotService = snapshot.Service
	// SnapshotCoordinator assembles global snapshots.
	SnapshotCoordinator = snapshot.Coordinator
	// SnapshotMember identifies a snapshot participant.
	SnapshotMember = snapshot.Member
	// GlobalSnapshot is an assembled snapshot with a consistency check.
	GlobalSnapshot = snapshot.Global
	// Checkpoint is a participant's durable local checkpoint record.
	Checkpoint = snapshot.Checkpoint
	// ChannelMsg is one in-flight message captured as channel state in a
	// checkpoint, replayable into a recovering dapplet's inboxes.
	ChannelMsg = snapshot.ChannelMsg
)

// AttachSnapshots equips a dapplet with the snapshot service.
var AttachSnapshots = snapshot.Attach

// NewSnapshotCoordinator creates a snapshot coordinator.
var NewSnapshotCoordinator = snapshot.NewCoordinator

// LastCheckpoint reads the most recent durable local checkpoint from a
// store that survived a crash.
var LastCheckpoint = snapshot.LastCheckpoint

// ReplayChannels re-queues the channel-state messages of a dapplet's
// last durable checkpoint into its inboxes after a crash-restart.
var ReplayChannels = snapshot.ReplayChannels

// Failure detection (see internal/failure): BFD-style heartbeats with
// per-peer adaptive timeouts and a suspect -> down state machine.
type (
	// FailureDetector heartbeats and monitors a dapplet's peers.
	FailureDetector = failure.Detector
	// FailureConfig tunes a detector (interval, multiplier, incarnation).
	FailureConfig = failure.Config
	// FailureEvent is one verdict change for a watched peer.
	FailureEvent = failure.Event
	// PeerState is a watcher's verdict about one peer.
	PeerState = failure.State
	// FailureStats counts explicit heartbeats sent and application
	// frames accepted as implicit liveness (heartbeat piggybacking).
	FailureStats = failure.Stats
)

// Peer liveness verdicts, in escalation order.
const (
	// PeerUp means heartbeats are arriving within the detection time.
	PeerUp = failure.Up
	// PeerSuspect means one detection time passed without a heartbeat.
	PeerSuspect = failure.Suspect
	// PeerDown means the watcher committed to the failure verdict.
	PeerDown = failure.Down
)

// AttachFailureDetector equips a dapplet with a heartbeat failure
// detector.
var AttachFailureDetector = failure.Attach

// BindSessionFailures forwards detector verdicts into a dapplet's
// session service, so Membership.LivePeers reflects peer liveness.
var BindSessionFailures = failure.BindSession

// AutoRepairSessions subscribes a session handle to a detector: a Down
// verdict for a session participant starts a repair thread that retries
// Reincarnate until the roster points at the peer's new incarnation.
var AutoRepairSessions = failure.AutoRepair

// Gossip substrate (see internal/gossip): periodic anti-entropy pulls
// and rumor mongering over one svc-served protocol. The replicated
// directory's convergence and the failure detector's verdict quorums
// both ride it.
type (
	// GossipEngine runs a dapplet's gossip rounds and rumor forwarding.
	GossipEngine = gossip.Engine
	// GossipConfig tunes an engine (interval, fanout, TTL, dedup window).
	GossipConfig = gossip.Config
	// GossipExchanger is one topic's anti-entropy contract: digest out,
	// delta back, delta applied.
	GossipExchanger = gossip.Exchanger
	// GossipRumorHandler receives each new rumor on a topic exactly once.
	GossipRumorHandler = gossip.RumorHandler
	// GossipStats counts rounds, pulls, deltas and rumor traffic.
	GossipStats = gossip.Stats
)

// AttachGossip equips a dapplet with a gossip engine.
var AttachGossip = gossip.Attach

// GossipRef addresses a peer engine's rumor inbox.
var GossipRef = gossip.Ref

// DirectoryGossipTopic is the anti-entropy topic directory replicas
// exchange their version-vector digests on.
const DirectoryGossipTopic = directory.GossipTopic

// BindDirectoryGossip registers a directory replica's anti-entropy
// exchanger on an engine, so replicas of the same shard reconcile
// missed writes (including tombstones) within bounded gossip rounds.
var BindDirectoryGossip = directory.BindGossip

// WithDirectoryRotateBack makes a directory client retry its preferred
// replica after the given backoff instead of pinning to a failover
// target forever.
var WithDirectoryRotateBack = directory.WithRotateBack

// RPC over inboxes: global pointers, async and sync calls.
type (
	// RPCRef is a global pointer to a served object.
	RPCRef = rpc.Ref
	// RPCObject is a set of named methods.
	RPCObject = rpc.Object
	// RPCClient issues calls to remote objects.
	RPCClient = rpc.Client
)

// ServeObject associates an object with an inbox and a thread.
var ServeObject = rpc.Serve

// NewRPCClient attaches an RPC client to a dapplet.
var NewRPCClient = rpc.NewClient

// Synchronization constructs.
type (
	// Barrier is an intra-dapplet cyclic barrier.
	Barrier = syncprim.Barrier
	// Semaphore is an intra-dapplet FIFO counting semaphore.
	Semaphore = syncprim.Semaphore
	// BarrierService coordinates distributed barriers.
	BarrierService = syncprim.BarrierService
	// SyncClient issues distributed synchronization operations.
	SyncClient = syncprim.Client
	// DistSemaphore is a token-backed distributed semaphore.
	DistSemaphore = syncprim.DistSemaphore
)

// NewBarrier creates an intra-dapplet barrier.
var NewBarrier = syncprim.NewBarrier

// NewSemaphore creates an intra-dapplet semaphore.
var NewSemaphore = syncprim.NewSemaphore

// ServeBarriers starts a distributed barrier coordinator.
var ServeBarriers = syncprim.ServeBarriers

// NewSyncClient attaches a distributed synchronization client.
var NewSyncClient = syncprim.NewClient

// NewDistSemaphore wraps a token manager as a semaphore.
var NewDistSemaphore = syncprim.NewDistSemaphore
