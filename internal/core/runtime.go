package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/state"
	"repro/internal/transport"
)

// Behavior is the code of a dapplet type — the part that would have been a
// downloaded Java class in the paper. Start is called once on the
// dapplet's own thread context after the dapplet's communication machinery
// is running; implementations register inbox handlers and spawn threads.
type Behavior interface {
	Start(d *Dapplet) error
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(d *Dapplet) error

// Start implements Behavior.
func (f BehaviorFunc) Start(d *Dapplet) error { return f(d) }

// Factory constructs a fresh Behavior instance per launched dapplet.
type Factory func() Behavior

// Registry maps dapplet type names to behaviour factories. It simulates
// the paper's code distribution: because Go cannot load code dynamically,
// all behaviours are compiled in and "installing" a type on a host grants
// that host permission to launch it.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Factory
}

// NewRegistry returns an empty behaviour registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]Factory)} }

// Register adds a behaviour factory under a type name, replacing any
// previous registration.
func (r *Registry) Register(typ string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[typ] = f
}

// Has reports whether a type name is registered.
func (r *Registry) Has(typ string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.m[typ]
	return ok
}

// New instantiates the behaviour for a type.
func (r *Registry) New(typ string) (Behavior, error) {
	r.mu.RLock()
	f, ok := r.m[typ]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, typ)
	}
	return f(), nil
}

// Runtime launches dapplets onto simulated hosts. It tracks which dapplet
// types are installed where, owns the launched dapplets, and stops them
// together. It also provides process-level fault injection: Crash kills a
// dapplet abruptly and Restart brings up a fresh incarnation on the same
// host with the same (surviving) persistent store.
type Runtime struct {
	net *netsim.Network
	reg *Registry

	mu        sync.Mutex
	installed map[string]map[string]bool // host -> type -> installed
	dapplets  map[string]*Dapplet        // instance name -> dapplet
	launched  map[string]*launchRec      // instance name -> launch record
	relCfg    transport.Config
}

// launchRec remembers how an instance was launched so Restart can
// reincarnate it. The store pointer models the instance's disk: it
// survives a crash and is handed to the next incarnation.
type launchRec struct {
	host, typ   string
	opts        []DappletOption
	store       *state.Store
	incarnation int
	crashed     bool
	restarting  bool // a Restart-driven Launch must keep this record
}

// NewRuntime creates a runtime over the given simulated network and
// behaviour registry.
func NewRuntime(net *netsim.Network, reg *Registry) *Runtime {
	return &Runtime{
		net:       net,
		reg:       reg,
		installed: make(map[string]map[string]bool),
		dapplets:  make(map[string]*Dapplet),
		launched:  make(map[string]*launchRec),
	}
}

// SetTransportConfig sets the reliable-layer configuration for dapplets
// launched after the call.
func (rt *Runtime) SetTransportConfig(c transport.Config) {
	rt.mu.Lock()
	rt.relCfg = c
	rt.mu.Unlock()
}

// Registry returns the behaviour registry.
func (rt *Runtime) Registry() *Registry { return rt.reg }

// Install records that the program for a dapplet type is available on a
// host ("prior to the session, each committee member has installed a
// calendar dapplet", §3.1). Installing an unregistered type fails.
func (rt *Runtime) Install(host, typ string) error {
	if !rt.reg.Has(typ) {
		return fmt.Errorf("%w: %q", ErrUnknownType, typ)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.installed[host] == nil {
		rt.installed[host] = make(map[string]bool)
	}
	rt.installed[host][typ] = true
	return nil
}

// Installed reports whether a type is installed on a host.
func (rt *Runtime) Installed(host, typ string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.installed[host][typ]
}

// Launch starts a dapplet of an installed type on a host, binding an
// ephemeral port, and runs its behaviour. The instance name must be
// unique within the runtime.
func (rt *Runtime) Launch(host, typ, name string, opts ...DappletOption) (*Dapplet, error) {
	rt.mu.Lock()
	if !rt.installed[host][typ] {
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: type %q on host %q", ErrNotInstalled, typ, host)
	}
	if _, dup := rt.dapplets[name]; dup {
		rt.mu.Unlock()
		return nil, fmt.Errorf("core: dapplet name %q already in use", name)
	}
	relCfg := rt.relCfg
	rt.mu.Unlock()

	b, err := rt.reg.New(typ)
	if err != nil {
		return nil, err
	}
	// Pre-scan the options for a per-dapplet queue capacity: the bind
	// happens here, before NewDapplet ever sees the options.
	var pre dappletConfig
	for _, o := range opts {
		o(&pre)
	}
	var ep *netsim.Endpoint
	if pre.queueCap > 0 {
		ep, err = rt.net.Host(host).BindAnyQueue(pre.queueCap)
	} else {
		ep, err = rt.net.Host(host).BindAny()
	}
	if err != nil {
		return nil, fmt.Errorf("core: bind on %q: %w", host, err)
	}
	allOpts := append([]DappletOption{WithTransportConfig(relCfg)}, opts...)
	d := NewDapplet(name, typ, transport.NewSimConn(ep), allOpts...)
	if err := b.Start(d); err != nil {
		d.Stop()
		return nil, fmt.Errorf("core: start %q: %w", name, err)
	}
	rt.mu.Lock()
	rt.dapplets[name] = d
	if rec := rt.launched[name]; rec != nil && rec.restarting {
		// Reincarnation via Restart: the original launch record stands.
		rec.restarting = false
		rec.crashed = false
	} else {
		// A fresh Launch — including one reusing a crashed instance's
		// name — starts a new lineage with its own record, so a later
		// Restart cannot resurrect the old host/type/store.
		rt.launched[name] = &launchRec{host: host, typ: typ, opts: opts, store: d.Store()}
	}
	rt.mu.Unlock()
	return d, nil
}

// Crash kills a launched dapplet abruptly, simulating a process failure:
// its socket closes (inbound datagrams are dropped like UDP to a dead
// port), its threads stop, and it is forgotten by the runtime — but its
// persistent store survives, exactly as a dead process's disk does.
// Restart brings up the next incarnation. To also take the machine off
// the network (all dapplets on it), use Network.Crash.
func (rt *Runtime) Crash(name string) error {
	rt.mu.Lock()
	d, ok := rt.dapplets[name]
	rec := rt.launched[name]
	if !ok || rec == nil {
		rt.mu.Unlock()
		return fmt.Errorf("core: crash: no launched dapplet %q", name)
	}
	delete(rt.dapplets, name)
	rec.crashed = true
	rt.mu.Unlock()
	d.Stop()
	return nil
}

// Restart launches a fresh incarnation of a crashed dapplet: same host,
// type and name, a newly bound port, and the previous incarnation's
// reopened store. The behaviour's Start runs again, so behaviours that
// load state from the store (and services such as session.RestoreSessions)
// recover what the store preserved. Restart returns the new dapplet;
// note its address differs from the crashed incarnation's.
func (rt *Runtime) Restart(name string) (*Dapplet, error) {
	rt.mu.Lock()
	rec := rt.launched[name]
	if rec == nil {
		rt.mu.Unlock()
		return nil, fmt.Errorf("core: restart: %q was never launched", name)
	}
	if !rec.crashed {
		rt.mu.Unlock()
		return nil, fmt.Errorf("core: restart: %q is not crashed", name)
	}
	if rec.restarting {
		rt.mu.Unlock()
		return nil, fmt.Errorf("core: restart: %q is already being restarted", name)
	}
	rec.incarnation++
	rec.restarting = true
	host, typ := rec.host, rec.typ
	opts := append([]DappletOption(nil), rec.opts...)
	store := rec.store
	rt.mu.Unlock()

	store.Reopen()
	d, err := rt.Launch(host, typ, name, append(opts, withStore(store))...)
	if err != nil {
		// The instance is still down and still restartable.
		rt.mu.Lock()
		rec.restarting = false
		rt.mu.Unlock()
		return nil, err
	}
	return d, nil
}

// Incarnation returns how many times the named dapplet has been
// restarted (0 for the original launch). Failure detectors attach it to
// heartbeats so watchers can tell recovery from reincarnation.
func (rt *Runtime) Incarnation(name string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rec := rt.launched[name]; rec != nil {
		return rec.incarnation
	}
	return 0
}

// Dapplet looks up a launched dapplet by instance name.
func (rt *Runtime) Dapplet(name string) (*Dapplet, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	d, ok := rt.dapplets[name]
	return d, ok
}

// Dapplets returns all launched dapplets, sorted by name.
func (rt *Runtime) Dapplets() []*Dapplet {
	rt.mu.Lock()
	names := make([]string, 0, len(rt.dapplets))
	for n := range rt.dapplets {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Dapplet, 0, len(names))
	for _, n := range names {
		out = append(out, rt.dapplets[n])
	}
	rt.mu.Unlock()
	return out
}

// StopAll stops every launched dapplet and forgets them.
func (rt *Runtime) StopAll() {
	rt.mu.Lock()
	ds := make([]*Dapplet, 0, len(rt.dapplets))
	for _, d := range rt.dapplets {
		ds = append(ds, d)
	}
	rt.dapplets = make(map[string]*Dapplet)
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *Dapplet) {
			defer wg.Done()
			d.Stop()
		}(d)
	}
	wg.Wait()
}
