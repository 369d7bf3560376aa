// Package world assembles and tears down one simulated world: the netsim
// network, the runtime that launches dapplets onto its hosts, the
// directory that resolves their names, and the free-standing dapplets
// bound outside the runtime. It is the simulation side of the
// simulation-versus-real seam: every simulated world in the module —
// scenario's applications, experiment's cells, the swarm harness and the
// tests — is built here, so a cross-cutting concern (a clock, a delivery
// log, a metrics registry) plugs in once, in New. cmd/calendard runs the
// same dapplets on real UDP and builds them itself; bench/ keeps its own
// builders until it moves onto this one.
//
// Close tears a world down in dependency order: the runtime's dapplets
// first, so their sessions, detectors and clients detach while the
// services they talk to still answer; then the free-standing dapplets
// (directory replicas, clients, initiators); then the network.
package world

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// World is one simulated world. Its fields are set by New and Directory
// and read-only after that.
type World struct {
	// Net is the simulated network every dapplet binds on.
	Net *netsim.Network
	// RT launches, crashes and restarts registered behaviours on Net;
	// register types through RT.Registry().
	RT *core.Runtime
	// Dir resolves dapplet names: a process-local map until Directory
	// hosts a replicated service, then that service's caching client.
	Dir directory.Resolver
	// DirClient is the caching client Directory installed as Dir (nil
	// without one); its Stats expose cache hits, misses and failovers.
	DirClient *directory.Client
	// DirServices holds the replicas Directory hosted, indexed
	// [shard][replica].
	DirServices [][]*directory.Service

	cfg       transport.Config
	mu        sync.Mutex
	free      []*core.Dapplet // guarded by mu
	closeOnce sync.Once
}

// New builds a network from opts and a runtime over it. cfg is the
// reliable-layer configuration of every dapplet the world starts, the
// runtime's and the free-standing ones alike.
func New(cfg transport.Config, opts ...netsim.Option) *World {
	net := netsim.New(opts...)
	rt := core.NewRuntime(net, core.NewRegistry())
	rt.SetTransportConfig(cfg)
	return &World{Net: net, RT: rt, Dir: directory.New(), cfg: cfg}
}

// Launch installs typ on host, launches instance name of it there and
// registers the instance in Dir. ctx bounds the registration.
func (w *World) Launch(ctx context.Context, host, typ, name string) (*core.Dapplet, error) {
	if err := w.RT.Install(host, typ); err != nil {
		return nil, err
	}
	d, err := w.RT.Launch(host, typ, name)
	if err != nil {
		return nil, err
	}
	if err := w.Dir.Register(ctx, directory.Entry{Name: name, Type: typ, Addr: d.Addr()}); err != nil {
		return nil, fmt.Errorf("world: register %s: %w", name, err)
	}
	return d, nil
}

// Conn binds a fresh port on host and wraps it as a transport socket.
// Binding fails only on a closed network, so Conn panics after Close: a
// caller that binds into a world it has torn down has a bug.
func (w *World) Conn(host string) transport.PacketConn {
	ep, err := w.Net.Host(host).BindAny()
	if err != nil {
		panic(fmt.Sprintf("world: bind on %q: %v", host, err))
	}
	return transport.NewSimConn(ep)
}

// Dapplet starts a free-standing dapplet — one with no behaviour, driven
// by its caller — on a fresh port on host. opts apply after the world's
// transport configuration. Close stops it after the runtime's dapplets.
func (w *World) Dapplet(host, typ, name string, opts ...core.DappletOption) *core.Dapplet {
	opts = append([]core.DappletOption{core.WithTransportConfig(w.cfg)}, opts...)
	d := core.NewDapplet(name, typ, w.Conn(host), opts...)
	w.mu.Lock()
	w.free = append(w.free, d)
	w.mu.Unlock()
	return d
}

// DirReplicaHost names the host Directory puts replica r of shard s on,
// for fault injection (Net.Crash) in replica-failure runs.
func DirReplicaHost(shard, replica int) string {
	return fmt.Sprintf("dirhost-%d-%d", shard, replica)
}

// Directory hosts a replicated, prefix-sharded directory service on
// free-standing dapplets — replica r of shard s on DirReplicaHost(s, r) —
// and replaces Dir with a caching client of it on host
// "dirhost-client". Call it before Launch so every registration travels
// the wire.
func (w *World) Directory(shards, replicas int, opts ...directory.ClientOption) (*directory.Client, error) {
	refs := make([][]wire.InboxRef, shards)
	w.DirServices = make([][]*directory.Service, shards)
	for s := range refs {
		for r := 0; r < replicas; r++ {
			svc := directory.Serve(w.Dapplet(DirReplicaHost(s, r), "directory", fmt.Sprintf("dir-%d-%d", s, r)))
			w.DirServices[s] = append(w.DirServices[s], svc)
			refs[s] = append(refs[s], svc.Ref())
		}
	}
	cluster, err := directory.NewCluster(refs)
	if err != nil {
		return nil, err
	}
	w.DirClient = directory.NewClient(w.Dapplet("dirhost-client", "directory", "dir-client"), cluster, opts...)
	w.Dir = w.DirClient
	return w.DirClient, nil
}

// Close stops the runtime's dapplets, then the free-standing ones, then
// the network. It is idempotent.
func (w *World) Close() {
	w.closeOnce.Do(func() {
		w.RT.StopAll()
		w.mu.Lock()
		free := w.free
		w.mu.Unlock()
		for _, d := range free {
			d.Stop()
		}
		w.Net.Close()
	})
}
