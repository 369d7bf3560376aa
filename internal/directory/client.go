package directory

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/svc"
	"repro/internal/wire"
)

// DefaultTimeout bounds one request to one directory replica; a replica
// silent past it is treated as failed and the client fails over to the
// next replica of the shard. Caller contexts compose with it: a request
// ends at whichever bound arrives first.
const DefaultTimeout = 2 * time.Second

// ClientStats counts a client's cache and failover activity.
type ClientStats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that went to a replica.
	Misses uint64
	// Failovers counts replica switches after a request timeout.
	Failovers uint64
	// Rotations counts returns to a shard's home replica after it came
	// back (see WithRotateBack).
	Rotations uint64
	// Evictions counts cache entries dropped by invalidation events or
	// failover flushes.
	Evictions uint64
}

// Lookups returns the total number of lookups observed (hits + misses).
func (s ClientStats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate returns the fraction of lookups answered from the cache, in
// [0, 1]; zero lookups report 0.
func (s ClientStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Add returns the element-wise sum of two stats snapshots; the swarm
// harness aggregates its initiators' counters with it.
func (s ClientStats) Add(o ClientStats) ClientStats {
	return ClientStats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Failovers: s.Failovers + o.Failovers,
		Rotations: s.Rotations + o.Rotations,
		Evictions: s.Evictions + o.Evictions,
	}
}

// cached is one cache slot: the entry plus the version that stamped it at
// the replica the client is subscribed to. Like the netsim route cache,
// the slot stays valid until a higher version invalidates it — here the
// version arrives pushed on the watch channel rather than polled.
type cached struct {
	entry   Entry
	version uint64
}

// Client is the initiator-side view of the replicated directory: lookups
// are served from a version-stamped cache kept coherent by watch events,
// misses are resolved from the owning shard's preferred replica, and a
// silent replica is failed over transparently. Registrations and
// removals fan out to every replica of the owning shard through the svc
// caller's first-ack helper. Client implements Resolver, so an Initiator
// accepts it interchangeably with the process-local Directory; every
// blocking method takes a context.Context, which propagates to the
// background fan-out threads — an abandoned mutation leaves no stragglers
// waiting past its caller's cancellation.
type Client struct {
	d       *core.Dapplet
	cluster *Cluster
	caller  *svc.Caller

	// writer is this client's identity for write stamping — the dapplet
	// name qualified by the caller's reply inbox, so two clients on one
	// dapplet never share a per-writer sequence. wseq numbers its writes.
	writer string
	wseq   atomic.Uint64

	// timeout is the per-replica request bound, fixed at construction.
	timeout time.Duration

	mu         sync.Mutex
	rotateBack time.Duration
	cache      map[string]cached
	// lastWrite holds, per name, the wseq of this client's latest write
	// to it.
	lastWrite  map[string]uint64
	pref       []int       // per-shard index of the preferred replica
	subbed     []bool      // per-shard: watch subscription acked by the preferred replica
	subPending []bool      // per-shard: a watch ack is being awaited
	subGen     []uint64    // per-shard: bumped by failover, so a stale ack cannot mark the new replica subscribed
	awaySince  []time.Time // per-shard: when the client left the home replica (zero while home)
	rotating   []bool      // per-shard: a rotate-back probe is in flight

	hits, misses, failovers, rotations, evictions atomic.Uint64
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithClientTimeout sets the per-replica request timeout (and thereby the
// failover latency after a replica crash). The default is DefaultTimeout.
func WithClientTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRotateBack sets how long a failed-over shard waits before probing
// its home replica (index 0) again; once the home replica answers, the
// client rotates back to it, which is how load returns to a replica that
// recovered and converged through anti-entropy. The default is
// DefaultRotateBack; zero or negative disables rotation.
func WithRotateBack(d time.Duration) ClientOption {
	return func(c *Client) { c.rotateBack = d }
}

// DefaultRotateBack is how long a failed-over client stays away from a
// shard's home replica before probing it again.
const DefaultRotateBack = 10 * time.Second

// NewClient attaches a directory client to a dapplet and subscribes it to
// invalidation events from the preferred replica of every shard. The
// watch requests are transmitted before NewClient returns (so, on the
// reliable layer's FIFO ordering, a replica adds the watcher before it
// sees any later request from this client) but their acks are awaited in
// the background — construction never blocks on a silent replica. An
// unacked subscription is retried on the next lookup the shard serves.
func NewClient(d *core.Dapplet, cluster *Cluster, opts ...ClientOption) *Client {
	c := &Client{
		d:          d,
		cluster:    cluster,
		caller:     svc.NewCaller(d),
		timeout:    DefaultTimeout,
		rotateBack: DefaultRotateBack,
		cache:      make(map[string]cached),
		lastWrite:  make(map[string]uint64),
		pref:       make([]int, cluster.NumShards()),
		subbed:     make([]bool, cluster.NumShards()),
		subPending: make([]bool, cluster.NumShards()),
		subGen:     make([]uint64, cluster.NumShards()),
		awaySince:  make([]time.Time, cluster.NumShards()),
		rotating:   make([]bool, cluster.NumShards()),
	}
	c.writer = d.Name() + "/" + c.caller.ReplyRef().Inbox
	for _, o := range opts {
		o(c)
	}
	c.caller.OnNotify(c.onNotify)
	for shard := 0; shard < cluster.NumShards(); shard++ {
		c.subscribe(shard)
	}
	return c
}

// Stats returns a snapshot of the client's cache and failover counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Failovers: c.failovers.Load(),
		Rotations: c.rotations.Load(),
		Evictions: c.evictions.Load(),
	}
}

// CacheLen returns the number of cached entries.
func (c *Client) CacheLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// Invalidate drops one name from the cache.
func (c *Client) Invalidate(name string) {
	c.mu.Lock()
	if _, ok := c.cache[name]; ok {
		delete(c.cache, name)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// FlushCache drops every cached entry.
func (c *Client) FlushCache() {
	c.mu.Lock()
	n := len(c.cache)
	c.cache = make(map[string]cached)
	c.mu.Unlock()
	c.evictions.Add(uint64(n))
}

// onNotify receives the server-initiated pushes on the caller's reply
// inbox — the watch events carrying invalidations.
func (c *Client) onNotify(env *wire.Envelope) {
	if ev, ok := env.Body.(*eventMsg); ok {
		c.onEvent(env, ev)
	}
}

// onEvent applies one invalidation event: a removal evicts the cached
// entry, a registration refreshes it in place. Events are honoured only
// from the shard's current preferred replica (version counters are
// per-replica, so a stray event from a previously preferred replica
// must not be compared against the new domain — whether the watch ack
// has arrived yet is irrelevant to the domain), and only when they
// carry a strictly newer version than the cache holds.
func (c *Client) onEvent(env *wire.Envelope, ev *eventMsg) {
	shard := c.cluster.ShardOf(ev.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := c.cluster.shards[shard][c.pref[shard]%len(c.cluster.shards[shard])]
	if env.FromDapplet != sub.Dapplet {
		return
	}
	have, ok := c.cache[ev.Name]
	if !ok {
		return // demand-filled cache: events never insert
	}
	if ev.Version <= have.version {
		return // stale or echo of our own write
	}
	if ev.Removed {
		delete(c.cache, ev.Name)
		c.evictions.Add(1)
		return
	}
	c.cache[ev.Name] = cached{
		entry:   Entry{Name: ev.Name, Type: ev.Typ, Addr: ev.Addr},
		version: ev.Version,
	}
}

// preferred returns the shard's current preferred replica ref.
func (c *Client) preferred(shard int) wire.InboxRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.cluster.shards[shard]
	return rs[c.pref[shard]%len(rs)]
}

// failover advances the shard to its next replica, flushes the shard's
// cached entries (version counters are per-replica, so entries stamped in
// the old replica's domain cannot be compared in the new one), and
// resubscribes to the new replica's watch channel.
func (c *Client) failover(shard int) {
	c.mu.Lock()
	rs := c.cluster.shards[shard]
	abandoned := rs[c.pref[shard]%len(rs)]
	c.pref[shard] = (c.pref[shard] + 1) % len(rs)
	if c.pref[shard]%len(rs) == 0 {
		c.awaySince[shard] = time.Time{} // wrapped around: home again
	} else if c.awaySince[shard].IsZero() {
		c.awaySince[shard] = time.Now()
	}
	// Retire any in-flight subscription: its ack (if it ever arrives)
	// belongs to the abandoned replica's generation.
	c.subGen[shard]++
	c.subbed[shard] = false
	c.subPending[shard] = false
	dropped := 0
	for name := range c.cache {
		if c.cluster.ShardOf(name) == shard {
			delete(c.cache, name)
			dropped++
		}
	}
	c.mu.Unlock()
	c.failovers.Add(1)
	c.evictions.Add(uint64(dropped))
	// Tell the abandoned replica (best effort — it is usually the dead
	// one) to stop pushing events this client would discard anyway.
	_ = c.caller.Cast(abandoned, "", &unwatchMsg{ReplyTo: c.caller.ReplyRef()})
	c.subscribe(shard)
}

// subscribe transmits a watch request to the shard's preferred replica
// immediately (callers rely on the FIFO ordering relative to their next
// request) and awaits the ack on a background thread; at most one ack
// wait is in flight per shard. A subscription that never acks is
// retried by the next lookup the shard answers, so a replica that was
// merely slow does not stay event-less forever.
func (c *Client) subscribe(shard int) {
	c.mu.Lock()
	if c.subPending[shard] {
		c.mu.Unlock()
		return
	}
	c.subPending[shard] = true
	gen := c.subGen[shard]
	c.mu.Unlock()
	settle := func(acked bool) {
		c.mu.Lock()
		if c.subGen[shard] == gen {
			if acked {
				c.subbed[shard] = true
			}
			c.subPending[shard] = false
		}
		c.mu.Unlock()
	}
	pend, err := c.caller.Send(c.preferred(shard), "", &watchMsg{})
	if err != nil {
		settle(false)
		return
	}
	c.d.Spawn(func() {
		ctx, cancel := context.WithTimeout(context.Background(), c.timeout) //wwlint:allow ctxcheck detached resubscribe probe spawned on the dapplet; bounded by the client timeout
		defer cancel()
		settle(pend.Await(ctx, nil) == nil)
	})
}

// maybeRotateBack probes a failed-over shard's home replica once the
// rotate-back window has elapsed. The probe is a watch request: its ack
// proves the home replica is answering again and doubles as the new
// event subscription, so the flip back — preferred index to home,
// generation bump, shard cache flush — needs no separate resubscribe.
// At most one probe is in flight per shard, and a failover that lands
// while the probe is pending wins: its generation bump voids the probe.
func (c *Client) maybeRotateBack(shard int) {
	c.mu.Lock()
	rs := c.cluster.shards[shard]
	if c.rotateBack <= 0 || len(rs) < 2 || c.pref[shard]%len(rs) == 0 || c.rotating[shard] ||
		c.awaySince[shard].IsZero() || time.Since(c.awaySince[shard]) < c.rotateBack {
		c.mu.Unlock()
		return
	}
	c.rotating[shard] = true
	gen := c.subGen[shard]
	c.mu.Unlock()
	pend, err := c.caller.Send(rs[0], "", &watchMsg{})
	if err != nil {
		c.mu.Lock()
		c.rotating[shard] = false
		c.awaySince[shard] = time.Now()
		c.mu.Unlock()
		return
	}
	c.d.Spawn(func() {
		ctx, cancel := context.WithTimeout(context.Background(), c.timeout) //wwlint:allow ctxcheck detached rotate-back probe spawned on the dapplet; bounded by the client timeout
		err := pend.Await(ctx, nil)
		cancel()
		c.mu.Lock()
		c.rotating[shard] = false
		if c.subGen[shard] != gen {
			c.mu.Unlock()
			return // a failover raced the probe; its state governs now
		}
		if err != nil {
			c.awaySince[shard] = time.Now() // home still silent; wait out another window
			c.mu.Unlock()
			return
		}
		abandoned := rs[c.pref[shard]%len(rs)]
		c.pref[shard] = 0
		c.subGen[shard]++
		c.subbed[shard] = true
		c.subPending[shard] = false
		c.awaySince[shard] = time.Time{}
		dropped := 0
		for name := range c.cache {
			if c.cluster.ShardOf(name) == shard {
				delete(c.cache, name)
				dropped++
			}
		}
		c.mu.Unlock()
		c.rotations.Add(1)
		c.evictions.Add(uint64(dropped))
		_ = c.caller.Cast(abandoned, "", &unwatchMsg{ReplyTo: c.caller.ReplyRef()})
	})
}

// stampWrite issues this client's next write stamp: the Lamport tick
// orders it after everything the client has witnessed, and the
// per-writer sequence is what replica version vectors track. One stamp
// covers a whole fan-out — every replica must order the write
// identically. The stamp becomes name's latest local write, so an ack of
// any earlier write to it arriving late cannot prime the cache.
func (c *Client) stampWrite(name string) (lam uint64, writer string, seq uint64) {
	lam = c.d.Clock().Tick()
	c.mu.Lock()
	seq = c.wseq.Add(1)
	c.lastWrite[name] = seq
	c.mu.Unlock()
	return lam, c.writer, seq
}

// mutate fans one mutation (built per replica by mk) to every replica of
// the owning shard and returns once the first replica acks — or every
// replica fails, or ctx ends first. The straggling acks are collected on
// background threads bounded by the caller's context plus the per-replica
// timeout, so an abandoned mutation cannot leave threads retrying past
// its cancellation; onPrefAck, when non-nil, runs with the acked version
// whenever the shard's preferred (subscribed) replica answers — possibly
// after mutate returns. Per-destination FIFO ordering still holds: all
// requests are transmitted before the first await begins.
func (c *Client) mutate(ctx context.Context, shard int, mk func(i int) wire.Msg, onPrefAck func(version uint64)) error {
	c.mu.Lock()
	rs := c.cluster.shards[shard]
	prefIdx := c.pref[shard] % len(rs)
	c.mu.Unlock()

	// The fan-out context: the caller's cancellation propagated to every
	// straggler, bounded by the per-replica timeout. It is released when
	// the last replica's outcome is in.
	fctx, cancel := context.WithTimeout(ctx, c.timeout)
	var outcomes atomic.Int64
	_, _, err := c.caller.CallFirst(fctx, rs, mk, func(i int, m wire.Msg, err error) {
		if err == nil && i == prefIdx && onPrefAck != nil {
			if ack, isAck := m.(*ackMsg); isAck {
				onPrefAck(ack.Version)
			}
		}
		if outcomes.Add(1) == int64(len(rs)) {
			cancel()
		}
	})
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// Register adds or replaces an entry, fanning the registration to every
// replica of the owning shard. It succeeds when at least one replica
// acknowledges within the context and per-replica timeout; replicas that
// were unreachable catch up through the reliable layer's retransmission
// when they return.
func (c *Client) Register(ctx context.Context, e Entry) error {
	shard := c.cluster.ShardOf(e.Name)
	lam, writer, seq := c.stampWrite(e.Name)
	err := c.mutate(ctx, shard, func(int) wire.Msg {
		return &registerMsg{Name: e.Name, Typ: e.Type, Addr: e.Addr, Lam: lam, Writer: writer, Seq: seq}
	}, func(version uint64) {
		// Prime the cache from the subscribed replica's ack, whenever it
		// arrives, with the same staleness guard as lookupRemote: a
		// concurrent writer's higher-versioned entry (applied from a
		// watch event) must not be clobbered by our own older ack. An ack
		// that lands after this client's next write to the name — a
		// Remove, say — answers a write that no longer stands.
		c.mu.Lock()
		if have, ok := c.cache[e.Name]; c.lastWrite[e.Name] == seq && (!ok || version > have.version) {
			c.cache[e.Name] = cached{entry: e, version: version}
		}
		c.mu.Unlock()
	})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("directory: no replica of shard %d acknowledged registering %q: %w", shard, e.Name, err)
	}
	return nil
}

// Remove deletes an entry by name on every replica of the owning shard.
// Removing a name that is not registered is not an error.
func (c *Client) Remove(ctx context.Context, name string) error {
	shard := c.cluster.ShardOf(name)
	lam, writer, seq := c.stampWrite(name) // first: from here no earlier write's ack primes the cache
	c.Invalidate(name)
	err := c.mutate(ctx, shard, func(int) wire.Msg {
		return &removeMsg{Name: name, Lam: lam, Writer: writer, Seq: seq}
	}, nil)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("directory: no replica of shard %d acknowledged removing %q: %w", shard, name, err)
	}
	return nil
}

// Lookup resolves a name: from the cache when a valid entry is held,
// otherwise from the owning shard's preferred replica (failing over
// through the shard's remaining replicas on silence). A resolution
// failure — name unknown, every replica silent, or the context ended —
// reports !ok.
func (c *Client) Lookup(ctx context.Context, name string) (Entry, bool) {
	c.mu.Lock()
	if have, ok := c.cache[name]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return have.entry, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	e, _, found, err := c.lookupRemote(ctx, name)
	if err != nil || !found {
		return Entry{}, false
	}
	return e, true
}

// MustLookup is Lookup but returns an error naming the missing dapplet
// (or the unreachable shard, or the ended context).
func (c *Client) MustLookup(ctx context.Context, name string) (Entry, error) {
	c.mu.Lock()
	if have, ok := c.cache[name]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return have.entry, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	e, _, found, err := c.lookupRemote(ctx, name)
	if err != nil {
		return Entry{}, err
	}
	if !found {
		return Entry{}, fmt.Errorf("directory: no dapplet named %q", name)
	}
	return e, nil
}

// lookupRemote resolves a name from the owning shard, trying each replica
// at most once starting from the preferred one. A found entry is cached
// under the answering replica's version stamp. A per-replica attempt is
// bounded by the replica timeout; the caller's context bounds (and can
// cancel) the whole resolution, and its ending is not grounds for
// failover — only a silent replica is.
func (c *Client) lookupRemote(ctx context.Context, name string) (Entry, uint64, bool, error) {
	shard := c.cluster.ShardOf(name)
	attempts := len(c.cluster.shards[shard])
	for try := 0; try < attempts; try++ {
		if err := ctx.Err(); err != nil {
			return Entry{}, 0, false, err
		}
		ref := c.preferred(shard)
		tctx, cancel := context.WithTimeout(ctx, c.timeout)
		var rep lookupRepMsg
		err := c.caller.Call(tctx, ref, &lookupMsg{Name: name}, &rep)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return Entry{}, 0, false, ctx.Err()
			}
			c.failover(shard)
			continue
		}
		// The replica answers but our watch subscription never acked
		// (e.g. it was slow at construction time): retry it now, or the
		// cache would silently miss this replica's invalidations.
		c.mu.Lock()
		needSub := !c.subbed[shard] && !c.subPending[shard]
		c.mu.Unlock()
		if needSub {
			c.subscribe(shard)
		}
		c.maybeRotateBack(shard)
		if !rep.Found {
			return Entry{}, rep.Version, false, nil
		}
		e := Entry{Name: rep.Name, Type: rep.Typ, Addr: rep.Addr}
		c.mu.Lock()
		if have, cachedAlready := c.cache[name]; !cachedAlready || rep.Version > have.version {
			c.cache[name] = cached{entry: e, version: rep.Version}
		}
		c.mu.Unlock()
		return e, rep.Version, true, nil
	}
	return Entry{}, 0, false, fmt.Errorf("directory: no replica of shard %d answered lookup of %q", shard, name)
}
