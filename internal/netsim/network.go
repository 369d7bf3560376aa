package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults used when a link or the network has no explicit configuration.
const (
	DefaultQueueCap = 1024
)

// ErrClosed is returned by operations on a closed network or endpoint.
var ErrClosed = errors.New("netsim: closed")

// ErrPortInUse is returned by Bind when the port is already bound.
var ErrPortInUse = errors.New("netsim: port in use")

// ErrNoRoute is returned by Send when the destination host does not exist.
var ErrNoRoute = errors.New("netsim: no route to host")

type config struct {
	seed         int64
	defaultDelay DelayModel
	timeScale    float64 // real delay = virtual delay * timeScale
	shards       int     // 0 means GOMAXPROCS
}

// DefaultDatagramOverhead is the modelled per-datagram wire overhead,
// the same for every network: a UDP header over IPv4 (28 bytes).
// Stats.WireBytes adds it to every datagram's payload, so transports
// that coalesce many small frames into one datagram show their on-wire
// byte saving.
const DefaultDatagramOverhead = 28

// Option configures a Network at construction time.
type Option func(*config)

// WithSeed fixes the simulator's random seed for reproducible runs. Each
// shard derives its own stream as seed ^ hash(shard index), so a run is
// reproducible per seed for any fixed shard count (see WithShards).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithDefaultDelay sets the delay model for links with no explicit model.
func WithDefaultDelay(m DelayModel) Option { return func(c *config) { c.defaultDelay = m } }

// WithTimeScale sets the ratio of real delivery delay to virtual link delay.
// The default 0 delivers datagrams immediately (virtual time still advances
// by the full modelled delay); 1.0 delivers in real time.
func WithTimeScale(s float64) Option { return func(c *config) { c.timeScale = s } }

// WithShards sets the number of delivery shards hosts are partitioned
// across. Each shard has its own lock, its own seeded random stream and
// its own timer queue, so sends to hosts on different shards never
// contend. The default (0) uses GOMAXPROCS. WithShards(1) serializes all
// routing decisions on one stream, making a single-threaded run fully
// deterministic per seed.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

type linkKey struct{ a, b string }

func mkLinkKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// LinkParams describes the behaviour of the (bidirectional) link between a
// pair of hosts. A zero LinkParams means "use network defaults, no faults".
type LinkParams struct {
	Delay   DelayModel // nil means the network default
	Loss    float64    // probability a datagram is silently dropped
	Dup     float64    // probability a datagram is delivered twice
	Reorder float64    // probability a datagram is delivered after its successor
}

// Stats is a snapshot of network-wide counters. The counters are summed
// from per-shard state without a global lock, so while the network is
// carrying traffic the fields may be mutually inconsistent (e.g.
// Delivered can momentarily exceed what the captured Sent implies); the
// balance Sent + Duplicated = Delivered + Lost* + reorder slots held is
// exact once the network is quiescent.
type Stats struct {
	Sent           uint64        // datagrams submitted to Send
	Delivered      uint64        // datagrams handed to a receive queue
	LostLink       uint64        // dropped by link loss
	LostQueue      uint64        // dropped at a full receive queue, and nowhere else
	LostNoListener uint64        // sent to an address no endpoint is bound to, like UDP to a closed port
	LostCut        uint64        // dropped by a partition
	LostCrash      uint64        // dropped because an endpoint's host was crashed
	Duplicated     uint64        // extra copies delivered
	Reordered      uint64        // datagrams deferred behind a successor
	WireBytes      uint64        // payload bytes plus DefaultDatagramOverhead per datagram
	MaxVirtual     time.Duration // max endpoint virtual clock
	MeanVirtual    time.Duration // mean endpoint virtual clock
}

// Network is a simulated world-wide datagram network. All methods are safe
// for concurrent use.
//
// Internally the network is sharded: every host is owned by exactly one
// shard (chosen by hashing the host name), and all routing state for
// datagrams delivered INTO that host — link parameters, partition view,
// reorder slots, the random stream and the timer queue — lives on the
// owning shard under its own lock. Send on disjoint destination hosts
// therefore never contends.
type Network struct {
	cfg    config
	shards []*shard

	closed    atomic.Bool
	closeOnce sync.Once
	done      chan struct{} // closed on Close; stops shard timer goroutines
}

// New creates an empty network.
func New(opts ...Option) *Network {
	cfg := config{
		seed:         1,
		defaultDelay: LAN(),
		timeScale:    0,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards <= 0 {
		cfg.shards = runtime.GOMAXPROCS(0)
	}
	n := &Network{
		cfg:    cfg,
		shards: make([]*shard, cfg.shards),
		done:   make(chan struct{}),
	}
	for i := range n.shards {
		n.shards[i] = newShard(cfg.seed, i)
	}
	return n
}

// Shards returns the number of delivery shards.
func (n *Network) Shards() int { return len(n.shards) }

// shardFor returns the shard owning the named host.
func (n *Network) shardFor(host string) *shard {
	if len(n.shards) == 1 {
		return n.shards[0]
	}
	return n.shards[hashString(host)%uint64(len(n.shards))]
}

// Host returns the named host, creating it on first use.
func (n *Network) Host(name string) *Host {
	s := n.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.hosts[name]; ok {
		return h
	}
	h := &Host{net: n, shard: s, name: name, ports: make(map[uint16]*Endpoint), nextPort: 40000}
	s.hosts[name] = h
	return h
}

// updateLink applies f to the a<->b link parameters. The authoritative
// copy for each delivery direction lives on the destination host's shard,
// so the update is applied on both endpoints' shards.
func (n *Network) updateLink(a, b string, f func(*LinkParams)) {
	k := mkLinkKey(a, b)
	sa, sb := n.shardFor(a), n.shardFor(b)
	for _, s := range []*shard{sa, sb} {
		s.mu.Lock()
		p := s.links[k]
		f(&p)
		s.links[k] = p
		s.version++
		s.mu.Unlock()
		if sa == sb {
			break
		}
	}
}

// SetLink configures the bidirectional link between hosts a and b.
func (n *Network) SetLink(a, b string, p LinkParams) {
	n.updateLink(a, b, func(dst *LinkParams) { *dst = p })
}

// SetLinkDelay configures only the delay model of the a<->b link, keeping
// any existing fault parameters.
func (n *Network) SetLinkDelay(a, b string, m DelayModel) {
	n.updateLink(a, b, func(p *LinkParams) { p.Delay = m })
}

// SetLoss configures only the loss probability of the a<->b link.
func (n *Network) SetLoss(a, b string, loss float64) {
	n.updateLink(a, b, func(p *LinkParams) { p.Loss = loss })
}

// Partition splits the network into the given host groups; datagrams
// between different groups are dropped. Hosts not named in any group form
// an implicit extra group. Heal removes the partition.
func (n *Network) Partition(groups ...[]string) {
	m := make(map[string]int)
	for i, g := range groups {
		for _, h := range g {
			m[h] = i + 1
		}
	}
	n.setGroups(m)
}

// Heal removes any partition.
func (n *Network) Heal() { n.setGroups(map[string]int{}) }

// Crash marks a host as crashed. While crashed, every datagram addressed
// to or sent from the host is dropped (counted as LostCrash), including
// time-scaled deliveries already in flight when Crash is called — they
// are discarded at their delivery instant, matching a machine that lost
// power with packets on the wire. Endpoints on the host stay bound, so a
// restarted host keeps its addresses. Crash is a control-plane change
// like Partition: it consumes no random draws, so seeded replay is
// unaffected.
func (n *Network) Crash(host string) { n.setDown(host, true) }

// Restart brings a crashed host back: datagrams flow to and from it
// again. Nothing dropped during the outage is replayed.
func (n *Network) Restart(host string) { n.setDown(host, false) }

// Crashed reports whether the host is currently crashed.
func (n *Network) Crashed(host string) bool {
	s := n.shardFor(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down[host]
}

// setDown installs the host's crash state on every shard, so both the
// source-side and destination-side checks in route see it. Like
// Partition, a send racing with Crash may see either the old or the new
// view. A crash also discards reorder-stashed datagrams on the host's
// links: a stash flushes with the link's next routed datagram, which
// could otherwise resurrect a pre-crash datagram after a restart.
func (n *Network) setDown(host string, down bool) {
	for _, s := range n.shards {
		s.mu.Lock()
		if down {
			s.down[host] = true
			for key := range s.pending {
				if key.a == host || key.b == host {
					delete(s.pending, key)
					s.ctr.lostCrash++
				}
			}
		} else {
			delete(s.down, host)
		}
		s.mu.Unlock()
	}
}

// setGroups installs a copy of the partition map on every shard. Routing
// reads only the destination shard's copy, so a send racing with
// Partition may see either the old or the new view — the same guarantee
// the single-lock design gave concurrent senders.
func (n *Network) setGroups(m map[string]int) {
	for _, s := range n.shards {
		cp := make(map[string]int, len(m))
		for k, v := range m {
			cp[k] = v
		}
		s.mu.Lock()
		s.groups = cp
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the network counters, including virtual-time
// aggregates across all endpoints. See the Stats type for the consistency
// guarantee: the counters balance exactly only at quiescence.
func (n *Network) Stats() Stats {
	s := n.Counters()
	var sum time.Duration
	var cnt int
	var max time.Duration
	for _, sh := range n.shards {
		sh.mu.Lock()
		eps := make([]*Endpoint, 0, 8)
		for _, h := range sh.hosts {
			for _, e := range h.ports {
				eps = append(eps, e)
			}
		}
		sh.mu.Unlock()
		for _, e := range eps {
			v := e.VNow()
			if v > max {
				max = v
			}
			sum += v
			cnt++
		}
	}
	s.MaxVirtual = max
	if cnt > 0 {
		s.MeanVirtual = sum / time.Duration(cnt)
	}
	return s
}

// Counters returns the network counters without the virtual-time
// aggregates: unlike Stats it never walks the endpoint tables, so it is
// O(shards) and safe to sample at high frequency over a network with
// hundreds of thousands of endpoints (the swarm harness snapshots it at
// every phase boundary). MaxVirtual and MeanVirtual are left zero.
func (n *Network) Counters() Stats {
	var s Stats
	for _, sh := range n.shards {
		sh.mu.Lock()
		s.Sent += sh.ctr.sent
		s.LostLink += sh.ctr.lostLink
		s.LostCut += sh.ctr.lostCut
		s.LostCrash += sh.ctr.lostCrash
		s.LostNoListener += sh.ctr.noListener
		s.Duplicated += sh.ctr.duplicated
		s.Reordered += sh.ctr.reordered
		s.WireBytes += sh.ctr.wireBytes
		sh.mu.Unlock()
		s.Delivered += sh.ctr.delivered.Load()
		s.LostQueue += sh.ctr.lostQueue.Load()
	}
	return s
}

// MaxVirtual returns the maximum endpoint virtual clock: the critical-path
// completion time of everything simulated so far.
func (n *Network) MaxVirtual() time.Duration { return n.Stats().MaxVirtual }

// Close shuts the network down, closing every endpoint. In-flight timed
// deliveries are cancelled.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.done) // stops every shard's timer goroutine
		var hosts []*Host
		for _, s := range n.shards {
			s.mu.Lock()
			s.timerQ = nil
			for _, h := range s.hosts {
				hosts = append(hosts, h)
			}
			s.mu.Unlock()
		}
		for _, h := range hosts {
			h.closeAll()
		}
	})
}

// linkFor returns the parameters for the a<->b link from the given
// shard's view, applying defaults. Caller must hold s.mu.
func (n *Network) linkFor(s *shard, a, b string) LinkParams {
	p := s.links[mkLinkKey(a, b)]
	if p.Delay == nil {
		p.Delay = n.cfg.defaultDelay
	}
	return p
}

// routeEntry is a cached resolution of one destination address: the
// owning shard, the destination endpoint and the effective link
// parameters. Entries are immutable; a shard version mismatch (link
// reconfigured, endpoint closed) forces a re-resolution.
type routeEntry struct {
	ver uint64
	to  Addr
	s   *shard
	dst *Endpoint
	lp  LinkParams
	key linkKey
}

// route performs loss/partition/duplication/reorder decisions and
// schedules delivery of one datagram. All decisions for a datagram are
// made on the destination host's shard, under that shard's lock and with
// that shard's random stream. Caller must not hold any shard lock.
func (n *Network) route(from *Endpoint, to Addr, payload []byte) error {
	if n.closed.Load() {
		return ErrClosed
	}
	var (
		s   *shard
		dst *Endpoint
		lp  LinkParams
		key linkKey
	)
	if c := from.rcache.Load(); c != nil && c.to == to {
		s = c.s
		s.mu.Lock()
		if s.version == c.ver {
			dst, lp, key = c.dst, c.lp, c.key
		}
	} else {
		s = n.shardFor(to.Host)
		s.mu.Lock()
	}
	if dst == nil {
		dstHost, ok := s.hosts[to.Host]
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrNoRoute, to.Host)
		}
		lp = n.linkFor(s, from.addr.Host, to.Host)
		key = mkLinkKey(from.addr.Host, to.Host)
		dst = dstHost.ports[to.Port]
		if dst != nil {
			// Fill the single cache slot only when it is empty, refreshing
			// this same destination, or holding an entry this shard has
			// already invalidated. A fan-out sender alternating between
			// destinations otherwise evicts on every send, paying a
			// routeEntry allocation per datagram for a cache that never
			// hits.
			if c := from.rcache.Load(); c == nil || c.to == to || (c.s == s && c.ver != s.version) {
				from.rcache.Store(&routeEntry{ver: s.version, to: to, s: s, dst: dst, lp: lp, key: key})
			}
		}
	}
	s.ctr.sent++
	s.ctr.wireBytes += uint64(len(payload) + DefaultDatagramOverhead)

	// Crash check: a crashed machine neither sends nor receives. The
	// check reads the destination shard's copy of the crash view, the
	// same consistency Partition offers concurrent senders.
	if len(s.down) > 0 && (s.down[from.addr.Host] || s.down[to.Host]) {
		s.ctr.lostCrash++
		s.mu.Unlock()
		return nil
	}

	// Partition check: distinct explicit groups never communicate; an
	// explicit group is also cut off from the implicit group 0.
	if len(s.groups) > 0 {
		ga, gb := s.groups[from.addr.Host], s.groups[to.Host]
		if ga != gb {
			s.ctr.lostCut++
			s.mu.Unlock()
			return nil
		}
	}

	if lp.Loss > 0 && s.rng.Float64() < lp.Loss {
		s.ctr.lostLink++
		s.mu.Unlock()
		return nil
	}

	if dst == nil {
		// No listener: silently dropped, like UDP to a closed port.
		s.ctr.noListener++
		s.mu.Unlock()
		return nil
	}

	vdelay := lp.Delay.Sample(s.rng)
	dg := Datagram{
		From:    from.addr,
		To:      to,
		Payload: s.clonePayload(payload),
		VSent:   from.VNow(),
	}
	dg.VArrive = dg.VSent + vdelay

	// Reordering: with probability Reorder, stash this datagram and deliver
	// it only after the next datagram on the same link (or at flush).
	var flushed *Datagram
	if len(s.pending) > 0 {
		if prev := s.pending[key]; prev != nil {
			delete(s.pending, key)
			flushed = prev
		}
	}
	if lp.Reorder > 0 && s.rng.Float64() < lp.Reorder && flushed == nil {
		s.ctr.reordered++
		// Copy to a branch-local so only this rare path heap-allocates;
		// taking &dg directly would force every datagram to escape.
		stash := dg
		s.pending[key] = &stash
		s.mu.Unlock()
		return nil
	}

	// Duplication is rolled only for a datagram actually being delivered
	// (a reorder-stashed one returned above), keeping the Duplicated
	// counter exact. The duplicate gets its own payload copy so every
	// delivery hands the receiver an exclusively owned slice (see
	// Endpoint.Recv).
	var dup *Datagram
	if lp.Dup > 0 && s.rng.Float64() < lp.Dup {
		d2 := dg
		d2.Payload = s.clonePayload(payload)
		dup = &d2
		s.ctr.duplicated++
	}
	realDelay := time.Duration(float64(vdelay) * n.cfg.timeScale)

	if realDelay > 0 {
		due := time.Now().Add(realDelay) //wwlint:allow determinism real-time pacing path: seeded replays run timeScale=0 and never schedule timed deliveries
		s.scheduleLocked(n, due, dst, dg)
		if dup != nil {
			s.scheduleLocked(n, due, dst, *dup)
		}
		if flushed != nil {
			s.scheduleLocked(n, due, dst, *flushed)
		}
		s.mu.Unlock()
		s.wakeTimer()
		return nil
	}
	s.mu.Unlock()

	n.deliver(dst, dg)
	if dup != nil {
		n.deliver(dst, *dup)
	}
	if flushed != nil {
		n.deliver(dst, *flushed)
	}
	return nil
}

// deliver hands dg to dst's receive queue, dropping it if the queue is
// full. It touches only the endpoint channel and the owning shard's
// atomic delivery counters, so it runs without any shard lock.
func (n *Network) deliver(dst *Endpoint, dg Datagram) {
	ctr := &dst.host.shard.ctr
	select {
	case dst.queue <- dg:
		ctr.delivered.Add(1)
	default:
		ctr.lostQueue.Add(1)
	}
}

// hashString is FNV-1a, used to map host names to shards.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
