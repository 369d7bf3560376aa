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
	// Evictions counts cache slots dropped: by a later tombstone (on an
	// event, an ack or a lookup reply), by a failover flush, or by
	// Invalidate or FlushCache.
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

// Client is the initiator-side view of the replicated directory: lookups
// are served from a cache of stamped records kept coherent by watch
// events, misses are resolved from the owning shard's preferred replica,
// and a silent replica is failed over transparently. Registrations and
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
	// cache holds live records only. Like the netsim route cache, a slot
	// stays valid until a record with a later stamp replaces or evicts
	// it; such records arrive on acks, lookup replies and events, from
	// any replica, since stamps order records across replicas (take).
	cache map[string]record
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
		cache:      make(map[string]record),
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
	c.cache = make(map[string]record)
	c.mu.Unlock()
	c.evictions.Add(uint64(n))
}

// onNotify receives the server-initiated pushes on the caller's reply
// inbox — the watch events, each a record that changed at a replica.
// Events refresh or evict slots but never fill one: the cache is
// demand-filled.
func (c *Client) onNotify(env *wire.Envelope) {
	if r, ok := env.Body.(*record); ok {
		c.mu.Lock()
		c.takeLocked(r, false)
		c.mu.Unlock()
	}
}

// takeLocked is the cache's one rule for a record heard from a replica —
// on an ack, a lookup reply or an event: it is taken only if its stamp
// is later than the slot's. A live record refreshes the slot (or fills
// an empty one, when fill is set); a tombstone evicts it. An echo of a
// record already held is not later, and changes nothing. Caller holds
// c.mu.
func (c *Client) takeLocked(r *record, fill bool) {
	have, ok := c.cache[r.Entry.Name]
	switch {
	case ok && !have.Stamp.less(r.Stamp):
	case r.Dead:
		if ok {
			delete(c.cache, r.Entry.Name)
			c.evictions.Add(1)
		}
	case ok || fill:
		c.cache[r.Entry.Name] = *r
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
// cached entries, and resubscribes to the new replica's watch channel.
// The flush is for the events this client missed while the abandoned
// replica was silent: writes that reached the shard's other replicas
// were never pushed to it, so a slot may be stale with nothing left to
// evict it.
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
// event subscription, so the flip back — preferred index to home and a
// generation bump — needs no separate resubscribe. The cache is kept:
// its stamps order records from any replica, and the backup pushed
// events until the home replica's subscription was in place.
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
		c.mu.Unlock()
		c.rotations.Add(1)
		_ = c.caller.Cast(abandoned, "", &unwatchMsg{ReplyTo: c.caller.ReplyRef()})
	})
}

// stampWrite issues this client's next write stamp: the Lamport tick
// orders it after everything the client has witnessed, and the
// per-writer sequence is what replica version vectors track. One stamp
// covers a whole fan-out — every replica must order the write
// identically. The stamp becomes name's latest local write, so an ack of
// any earlier write to it arriving late cannot prime the cache.
func (c *Client) stampWrite(name string) wstamp {
	lam := c.d.Clock().Tick()
	c.mu.Lock()
	seq := c.wseq.Add(1)
	c.lastWrite[name] = seq
	c.mu.Unlock()
	return wstamp{Lam: lam, Writer: c.writer, Seq: seq}
}

// put fans one write to every replica of the owning shard and returns
// once the first replica acks — or every replica fails, or ctx ends
// first. The straggling acks are collected on background threads bounded
// by the caller's context plus the per-replica timeout, so an abandoned
// write cannot leave threads retrying past its cancellation.
// Per-destination FIFO ordering still holds: all requests are
// transmitted before the first await begins.
//
// The first ack carries the record that governs the name at its replica,
// and the cache takes it by the one rule unless this client has written
// the name again since. So a write that lost last-writer-wins leaves the
// winner in the cache, and a remove that won evicts the slot.
func (c *Client) put(ctx context.Context, r *record) error {
	shard := c.cluster.ShardOf(r.Entry.Name)
	rs := c.cluster.shards[shard]
	// The fan-out context: the caller's cancellation propagated to every
	// straggler, bounded by the per-replica timeout. It is released when
	// the last replica's outcome is in.
	fctx, cancel := context.WithTimeout(ctx, c.timeout)
	var outcomes atomic.Int64
	_, ack, err := c.caller.CallFirst(fctx, rs, func(int) wire.Msg { return r }, func(int, wire.Msg, error) {
		if outcomes.Add(1) == int64(len(rs)) {
			cancel()
		}
	})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		what := "registering"
		if r.Dead {
			what = "removing"
		}
		return fmt.Errorf("directory: no replica of shard %d acknowledged %s %q: %w", shard, what, r.Entry.Name, err)
	}
	if gov, ok := ack.(*record); ok {
		c.mu.Lock()
		if c.lastWrite[r.Entry.Name] == r.Stamp.Seq {
			c.takeLocked(gov, true)
		}
		c.mu.Unlock()
	}
	return nil
}

// Register adds or replaces an entry, fanning the registration to every
// replica of the owning shard. It succeeds when at least one replica
// acknowledges within the context and per-replica timeout; replicas that
// were unreachable catch up through the reliable layer's retransmission
// when they return.
func (c *Client) Register(ctx context.Context, e Entry) error {
	return c.put(ctx, &record{Entry: e, Stamp: c.stampWrite(e.Name)})
}

// Remove deletes an entry by name on every replica of the owning shard.
// Removing a name that is not registered is not an error.
func (c *Client) Remove(ctx context.Context, name string) error {
	return c.put(ctx, &record{Entry: Entry{Name: name}, Dead: true, Stamp: c.stampWrite(name)})
}

// Lookup resolves a name: from the cache when a valid entry is held,
// otherwise from the owning shard's preferred replica (failing over
// through the shard's remaining replicas on silence). A resolution
// failure — name unknown, every replica silent, or the context ended —
// reports !ok.
func (c *Client) Lookup(ctx context.Context, name string) (Entry, bool) {
	e, err := c.MustLookup(ctx, name)
	return e, err == nil
}

// MustLookup is Lookup but returns an error naming the missing dapplet
// (or the unreachable shard, or the ended context).
func (c *Client) MustLookup(ctx context.Context, name string) (Entry, error) {
	c.mu.Lock()
	have, ok := c.cache[name]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return have.Entry, nil
	}
	c.misses.Add(1)
	r, err := c.lookupRemote(ctx, name)
	if err != nil {
		return Entry{}, err
	}
	if r.Dead {
		return Entry{}, fmt.Errorf("directory: no dapplet named %q", name)
	}
	return r.Entry, nil
}

// lookupRemote resolves a name from the owning shard, trying each replica
// at most once starting from the preferred one, and returns the record
// that governs it there (a bare tombstone for an unknown name), which the
// cache takes by the one rule. A per-replica attempt is bounded by the
// replica timeout; the caller's context bounds (and can cancel) the whole
// resolution, and its ending is not grounds for failover — only a silent
// replica is.
func (c *Client) lookupRemote(ctx context.Context, name string) (record, error) {
	shard := c.cluster.ShardOf(name)
	attempts := len(c.cluster.shards[shard])
	for try := 0; try < attempts; try++ {
		if err := ctx.Err(); err != nil {
			return record{}, err
		}
		ref := c.preferred(shard)
		tctx, cancel := context.WithTimeout(ctx, c.timeout)
		var rep record
		err := c.caller.Call(tctx, ref, &lookupMsg{Name: name}, &rep)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return record{}, ctx.Err()
			}
			c.failover(shard)
			continue
		}
		c.mu.Lock()
		c.takeLocked(&rep, true)
		// The replica answers but our watch subscription never acked
		// (e.g. it was slow at construction time): retry it now, or the
		// cache would silently miss this replica's invalidations.
		needSub := !c.subbed[shard] && !c.subPending[shard]
		c.mu.Unlock()
		if needSub {
			c.subscribe(shard)
		}
		c.maybeRotateBack(shard)
		return rep, nil
	}
	return record{}, fmt.Errorf("directory: no replica of shard %d answered lookup of %q", shard, name)
}
