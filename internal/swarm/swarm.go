package swarm

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// SessionInbox is the service inbox every swarm member answers echo
// sessions on.
const SessionInbox = "@swarm"

// Dapplet type names the harness registers.
const (
	typeMember = "swarm-member"
	typeDir    = "swarm-dir"
	typeIni    = "swarm-ini"
)

// echoMsg is the one-request session a swarm initiator drives: the
// member echoes the nonce back, so a completed call proves directory
// resolution plus a request/reply round trip to the resolved address.
type echoMsg struct {
	Nonce uint64
}

// Kind implements wire.Msg.
func (*echoMsg) Kind() string { return "swarm.echo" }

// AppendBinary implements wire.Msg.
func (m *echoMsg) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendUvarint(dst, m.Nonce), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *echoMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Nonce = r.Uvarint()
	return r.Done()
}

func init() { wire.Register(&echoMsg{}) }

// Config sizes and paces one swarm run. Zero values select defaults.
type Config struct {
	// N is the member population the join phase builds (default 1000),
	// spread over N/64 simulated hosts, clamped to [4, 256].
	N int
	// Seed seeds the network and every workload RNG (default 1).
	Seed int64
	// NetShards overrides the netsim delivery shard count; 0 keeps the
	// netsim default. Lockstep mode forces one shard regardless.
	NetShards int
	// DirShards and DirReplicas shape the directory deployment
	// (defaults N/4096+1 clamped to [1, 16], and 1).
	DirShards   int
	DirReplicas int
	// RingWatch is how many random live members each joiner watches
	// (default 2); every watch edge is made symmetric because detection
	// is bidirectional.
	RingWatch int
	// Initiators is the number of session-driving clients (default 4).
	Initiators int
	// Interval and Multiplier tune every detector in the swarm
	// (defaults 250ms and 2).
	Interval   time.Duration
	Multiplier int
	// ChurnRate is the target churn ops/sec and SessionRate the target
	// sessions/sec, both in throughput mode (defaults 50 and 100).
	ChurnRate   float64
	SessionRate float64
	// Duration is the throughput-mode churn phase length (default 5s).
	Duration time.Duration
	// Lockstep serializes churn: lockstepOps ops, one at a time, each
	// awaited until every watcher's verdict lands, over a single-shard
	// network — two runs with the same seed produce identical event logs.
	Lockstep bool
	// GossipInterval, when positive, turns gossip on: every detector
	// spreads verdict rumours (a member's over its live watched peers, a
	// replica's among its shard siblings) and needs a quorum of two
	// confirmers before a Down, so a partitioned watcher alone cannot
	// produce a false Down, and each shard's replicas reconcile the
	// directory by anti-entropy at this round period.
	GossipInterval time.Duration
	// PartitionRate is the partition-injection rate (ops/sec) in timed
	// churn: each op isolates one random live member's host from the
	// rest of the network for PartitionDur (default 1s), then heals it.
	// Zero disables injection. Lockstep mode ignores it.
	PartitionRate float64
	PartitionDur  time.Duration
}

// lockstepOps is the churn op count in lockstep mode.
const lockstepOps = 40

// memberQueueCap is each member endpoint's netsim receive-queue
// capacity: the netsim default is sized for busy dapplets and is pure
// waste times 100k idle ones.
const memberQueueCap = 64

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DirShards <= 0 {
		c.DirShards = clampInt(c.N/4096+1, 1, 16)
	}
	if c.DirReplicas <= 0 {
		c.DirReplicas = 1
	}
	if c.RingWatch <= 0 {
		c.RingWatch = 2
	}
	if c.Initiators <= 0 {
		c.Initiators = 4
	}
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Multiplier <= 0 {
		c.Multiplier = 2
	}
	if c.ChurnRate <= 0 {
		c.ChurnRate = 50
	}
	if c.SessionRate <= 0 {
		c.SessionRate = 100
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.PartitionDur <= 0 {
		c.PartitionDur = time.Second
	}
	return c
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// member is the harness's bookkeeping for one swarm member across its
// incarnations; d and det are replaced on every (re)start by the
// behavior, edges is the symmetric watch set maintained by the churn
// ops.
type member struct {
	name  string
	host  string
	d     *core.Dapplet
	det   *failure.Detector
	edges map[string]bool
	live  bool
	// liveIdx is the member's slot in Swarm.live while live, for O(1)
	// swap-removal.
	liveIdx int
}

// dirReplica is one directory replica: a dapplet hosting a directory
// Service bound to a failure detector.
type dirReplica struct {
	name string
	d    *core.Dapplet
	det  *failure.Detector
	svc  *directory.Service
}

// initiator is one session-driving client endpoint.
type initiator struct {
	d      *core.Dapplet
	client *directory.Client
	caller *svc.Caller
}

// maxSamples bounds every latency sample set so a long run's report
// stays O(1) in memory.
const maxSamples = 1 << 16

// Swarm is one running harness instance; Run owns its lifecycle.
type Swarm struct {
	*world.World
	cfg       Config
	hosts     int // member hosts
	cluster   *directory.Cluster
	memberRel transport.Config

	dirs  [][]*dirReplica
	inits []*initiator

	mu          sync.Mutex
	members     map[string]*member
	dirByName   map[string]*dirReplica
	live        []*member
	crashedList []string
	nextID      int
	nextIni     int
	crashedAt   map[string]time.Time
	revivedAt   map[string]time.Time
	retired     failure.Stats
	retiredRel  transport.Stats
	parted      map[string]bool

	downs, ups                      uint64
	falseDowns, partitions          uint64
	joins, leaves, crashes, revives uint64
	ops, opErrs, sessions, sessErrs uint64
	sessLat, downLat, upLat         []time.Duration
	eventLog                        []string
}

// Run executes one swarm harness run: launch the directory and
// initiators, join N members, churn them (timed drivers or lockstep
// ops), and return the measured report. Ending ctx cuts the churn phase
// short with ctx.Err(). The swarm is fully torn down — every dapplet
// stopped and the network closed — before Run returns, whatever the
// outcome.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	shards := cfg.NetShards
	if cfg.Lockstep {
		shards = 1
	}
	s := &Swarm{
		World:     world.New(transport.Config{}, netsim.WithSeed(cfg.Seed), netsim.WithShards(shards)),
		cfg:       cfg,
		hosts:     clampInt(cfg.N/64, 4, 256),
		members:   make(map[string]*member, cfg.N+cfg.N/4),
		dirByName: make(map[string]*dirReplica),
		parted:    make(map[string]bool),
		crashedAt: make(map[string]time.Time),
		revivedAt: make(map[string]time.Time),
		memberRel: transport.Config{
			RTO: clampDur(cfg.Interval/2, 50*time.Millisecond, time.Second),
		},
	}
	defer s.Close()

	reg := s.RT.Registry()
	reg.Register(typeMember, func() core.Behavior { return core.BehaviorFunc(s.startMember) })
	reg.Register(typeDir, func() core.Behavior { return core.BehaviorFunc(s.startDir) })
	reg.Register(typeIni, func() core.Behavior { return core.BehaviorFunc(s.startIni) })
	if err := s.launchDirectory(); err != nil {
		return nil, err
	}
	if err := s.launchInitiators(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	base := s.cumulative()
	if err := s.joinPhase(rng); err != nil {
		return nil, err
	}
	// Post-join footprint: the marginal cost of an idle swarm. GC first
	// so the sample is live bytes, not allocation history.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	goro := runtime.NumGoroutine()
	joinEnd := s.cumulative()

	var err error
	if cfg.Lockstep {
		err = s.lockstepChurn(ctx, rng)
	} else {
		err = s.timedChurn(ctx)
	}
	if err != nil {
		return nil, err
	}
	churnEnd := s.cumulative()
	conv := s.measureConvergence()

	rep := s.buildReport(base, joinEnd, churnEnd, ms.HeapAlloc, goro)
	rep.DirConvergeRounds = conv
	s.Close()
	return rep, nil
}

func clampDur(v, lo, hi time.Duration) time.Duration {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// detConfig is the detector configuration shared by every swarm
// dapplet.
func (s *Swarm) detConfig(name string) failure.Config {
	return failure.Config{
		Interval:    s.cfg.Interval,
		Multiplier:  s.cfg.Multiplier,
		Incarnation: uint64(s.RT.Incarnation(name)),
		Gossip:      s.cfg.GossipInterval > 0,
	}
}

// startMember is the swarm-member behavior: a detector and the echo
// service. The harness wires watch edges and
// registers the member after launch.
func (s *Swarm) startMember(d *core.Dapplet) error {
	det := failure.Attach(d, s.detConfig(d.Name()))
	det.OnEvent(s.observeVerdict)
	svc.Serve(d, SessionInbox, svc.Handlers{
		"swarm.echo": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			return req, nil
		},
	})
	s.mu.Lock()
	m := s.members[d.Name()]
	if m == nil {
		m = &member{name: d.Name(), edges: make(map[string]bool)}
		s.members[d.Name()] = m
	}
	m.d, m.det = d, det
	s.mu.Unlock()
	return nil
}

// startDir is the swarm-dir behavior: a directory replica whose entries
// are watched by (and expired through) its own detector. With gossip
// enabled, launchDirectory starts its anti-entropy among its shard
// siblings once every replica is up.
func (s *Swarm) startDir(d *core.Dapplet) error {
	det := failure.Attach(d, s.detConfig(d.Name()))
	det.OnEvent(s.observeVerdict)
	dir := directory.Serve(d)
	failure.BindDirectory(det, dir)
	s.mu.Lock()
	s.dirByName[d.Name()] = &dirReplica{name: d.Name(), d: d, det: det, svc: dir}
	s.mu.Unlock()
	return nil
}

// startIni is the swarm-ini behavior: a caching directory client plus a
// caller for the echo sessions.
func (s *Swarm) startIni(d *core.Dapplet) error {
	ini := &initiator{
		d:      d,
		client: directory.NewClient(d, s.cluster),
		caller: svc.NewCaller(d),
	}
	s.mu.Lock()
	s.inits = append(s.inits, ini)
	s.mu.Unlock()
	return nil
}

// observeVerdict is the swarm-wide verdict observer: it counts
// transitions and samples verdict latency against the harness's injected
// crash and revive timestamps. It runs on detector threads under their
// emit locks, so it only touches s.mu (never a detector's).
func (s *Swarm) observeVerdict(ev failure.Event) {
	switch ev.State {
	case failure.Down:
		s.mu.Lock()
		s.downs++
		if at, ok := s.crashedAt[ev.Peer]; ok {
			if len(s.downLat) < maxSamples {
				s.downLat = append(s.downLat, time.Since(at))
			}
		} else if m := s.members[ev.Peer]; m != nil && m.live {
			// Down verdict for a member the harness never crashed: a
			// false positive (partition- or load-induced).
			s.falseDowns++
		}
		s.mu.Unlock()
	case failure.Up:
		s.mu.Lock()
		s.ups++
		if at, ok := s.revivedAt[ev.Peer]; ok && len(s.upLat) < maxSamples {
			s.upLat = append(s.upLat, time.Since(at))
		}
		s.mu.Unlock()
	}
}

// launchDirectory brings up DirShards x DirReplicas replicas, each on
// its own host, and builds the client-side cluster map. Replicas absorb
// heartbeat fan-in from every registered member, so their receive
// queues see O(N) sustained arrivals; the netsim default holds only
// ~150ms of burst at 500-member scale and overflow there drops
// anti-entropy pulls along with the heartbeats.
func (s *Swarm) launchDirectory() error {
	queueCap := core.WithQueueCap(max(8*s.cfg.N, netsim.DefaultQueueCap))
	refs := make([][]wire.InboxRef, s.cfg.DirShards)
	s.dirs = make([][]*dirReplica, s.cfg.DirShards)
	for sh := 0; sh < s.cfg.DirShards; sh++ {
		for r := 0; r < s.cfg.DirReplicas; r++ {
			host := fmt.Sprintf("dh-%d-%d", sh, r)
			name := fmt.Sprintf("dir-%d-%d", sh, r)
			if err := s.RT.Install(host, typeDir); err != nil {
				return err
			}
			if _, err := s.RT.Launch(host, typeDir, name, queueCap); err != nil {
				return fmt.Errorf("swarm: launch %s: %w", name, err)
			}
			s.mu.Lock()
			rep := s.dirByName[name]
			s.mu.Unlock()
			s.dirs[sh] = append(s.dirs[sh], rep)
			refs[sh] = append(refs[sh], rep.svc.Ref())
		}
	}
	// Anti-entropy runs within a shard, among its replicas.
	if s.cfg.GossipInterval > 0 {
		for sh, shard := range s.dirs {
			for _, rep := range shard {
				rep.svc.Reconcile(refs[sh], s.cfg.GossipInterval)
			}
		}
	}
	var err error
	s.cluster, err = directory.NewCluster(refs)
	return err
}

// launchInitiators brings up the session-driving clients; they launch
// after the cluster map exists and before any member joins.
func (s *Swarm) launchInitiators() error {
	for i := 0; i < s.cfg.Initiators; i++ {
		host := fmt.Sprintf("ih%02d", i)
		if err := s.RT.Install(host, typeIni); err != nil {
			return err
		}
		if _, err := s.RT.Launch(host, typeIni, fmt.Sprintf("ini%02d", i)); err != nil {
			return fmt.Errorf("swarm: launch initiator %d: %w", i, err)
		}
	}
	// Member hosts are installed up front too, so joins never race
	// Install.
	for i := 0; i < s.hosts; i++ {
		if err := s.RT.Install(memberHost(i), typeMember); err != nil {
			return err
		}
	}
	return nil
}

func memberHost(i int) string { return fmt.Sprintf("mh%03d", i) }

// joinPhase grows the population to N: sequentially in lockstep mode,
// else with a small worker pool (launches are cheap; the await is the
// directory registration round trip).
func (s *Swarm) joinPhase(rng *rand.Rand) error {
	if s.cfg.Lockstep {
		for i := 0; i < s.cfg.N; i++ {
			if _, err := s.opJoin(rng); err != nil {
				return err
			}
		}
		return nil
	}
	workers := clampInt(s.hosts, 8, 64)
	if workers > s.cfg.N {
		workers = s.cfg.N
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	take := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= s.cfg.N {
			return false
		}
		next++
		return true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		wrng := rand.New(rand.NewSource(s.cfg.Seed + int64(w)*7919 + 1))
		go func(wrng *rand.Rand) {
			defer wg.Done()
			for take() {
				if _, err := s.opJoin(wrng); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(wrng)
	}
	wg.Wait()
	return firstErr
}

// timedChurn runs the throughput-mode churn and session drivers for the
// configured duration.
func (s *Swarm) timedChurn(ctx context.Context) error {
	// Cancelled when the window closes: it stops every driver, and the
	// session in flight with it — an echo to a member that crashed after
	// the lookup would otherwise hold the phase open for opTimeout.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := ctx.Done()
	errc := make(chan error, 1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		s.churnDriver(rand.New(rand.NewSource(s.cfg.Seed^0x5eed)), stop, errc)
	}()
	for i := range s.inits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.sessionDriver(ctx, i, rand.New(rand.NewSource(s.cfg.Seed+0x1000+int64(i))))
		}(i)
	}
	if s.cfg.PartitionRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.partitionDriver(rand.New(rand.NewSource(s.cfg.Seed^0x9a57)), stop)
		}()
	}

	timer := time.NewTimer(s.cfg.Duration)
	var err error
	select {
	case <-timer.C:
	case err = <-errc:
	case <-ctx.Done():
		err = ctx.Err()
	}
	timer.Stop()
	cancel()
	wg.Wait()
	return err
}

// churnDriver performs churn ops at the configured rate until stopped.
func (s *Swarm) churnDriver(rng *rand.Rand, stop <-chan struct{}, errc chan<- error) {
	gap := time.Duration(float64(time.Second) / s.cfg.ChurnRate)
	if gap < 200*time.Microsecond {
		gap = 200 * time.Microsecond
	}
	tick := time.NewTicker(gap)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if err := s.churnOp(rng); err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
		}
	}
}

// churnOp performs one randomly chosen churn operation; ops whose guard
// fails (population floor, empty crash pool) fall back to a join so
// every tick does work.
func (s *Swarm) churnOp(rng *rand.Rand) error {
	r := rng.Float64()
	var (
		done bool
		err  error
	)
	switch {
	case r < 0.30:
		_, err = s.opJoin(rng)
		done = true
	case r < 0.40:
		done, err = s.opLeave(rng)
	case r < 0.70:
		done, err = s.opCrash(rng)
	default:
		done, err = s.opRevive(rng)
	}
	if err == nil && !done {
		_, err = s.opJoin(rng)
	}
	return err
}

// sessionDriver drives this initiator's share of the session rate until
// stopped.
func (s *Swarm) sessionDriver(ctx context.Context, idx int, rng *rand.Rand) {
	gap := time.Duration(float64(s.cfg.Initiators) / s.cfg.SessionRate * float64(time.Second))
	if gap < 200*time.Microsecond {
		gap = 200 * time.Microsecond
	}
	tick := time.NewTicker(gap)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.opSession(ctx, idx, rng)
		}
	}
}

// lockstepChurn performs lockstepOps churn operations one at a time,
// each awaited to its observable outcome before the next begins.
func (s *Swarm) lockstepChurn(ctx context.Context, rng *rand.Rand) error {
	for i := 0; i < lockstepOps; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := rng.Float64()
		var (
			done bool
			err  error
		)
		switch {
		case r < 0.20:
			_, err = s.opJoin(rng)
			done = true
		case r < 0.30:
			done, err = s.opLeave(rng)
		case r < 0.50:
			done, err = s.opCrash(rng)
		case r < 0.75:
			done, err = s.opRevive(rng)
		default:
			s.opSession(ctx, -1, rng)
			done = true
		}
		if err != nil {
			return err
		}
		if !done {
			if _, err = s.opJoin(rng); err != nil {
				return err
			}
		}
	}
	return nil
}

// counters is one cumulative activity sample; phase stats are deltas
// between two of them.
type counters struct {
	at                 time.Time
	delivered          uint64
	lostQueue          uint64
	noListener         uint64
	det                failure.Stats
	frames, datagrams  uint64
	acksSA, acksPB     uint64
	dir                directory.ClientStats
	ae                 directory.ReplicaStats
	downs, ups         uint64
	falseDowns         uint64
	partitions         uint64
	sessions, sessErrs uint64
	ops, opErrs        uint64
	joins, leaves      uint64
	crashes, revives   uint64
}

// cumulative samples every counter the report is built from.
func (s *Swarm) cumulative() counters {
	c := counters{at: time.Now()} //wwlint:allow determinism report timestamps are wall-clock measurement, not replayed state
	ns := s.Net.Counters()
	c.delivered, c.lostQueue, c.noListener = ns.Delivered, ns.LostQueue, ns.LostNoListener

	s.mu.Lock()
	st := s.retired
	rel := s.retiredRel
	for _, m := range s.live {
		if m.det != nil {
			st = addDetStats(st, m.det.Stats())
		}
		if m.d != nil {
			rel = addRelStats(rel, m.d.Transport().Stats())
		}
	}
	for _, shard := range s.dirs {
		for _, r := range shard {
			st = addDetStats(st, r.det.Stats())
			rel = addRelStats(rel, r.d.Transport().Stats())
			as := r.svc.Stats()
			c.ae.Rounds += as.Rounds
			c.ae.Pulls += as.Pulls
			c.ae.Deltas += as.Deltas
		}
	}
	c.det = st
	for _, ini := range s.inits {
		c.dir = c.dir.Add(ini.client.Stats())
		rel = addRelStats(rel, ini.d.Transport().Stats())
	}
	c.frames = rel.DataSent + rel.Retransmits + rel.AcksSent
	c.datagrams = rel.DatagramsOut
	c.acksSA, c.acksPB = rel.AcksSent, rel.AcksPiggybacked
	c.downs, c.ups = s.downs, s.ups
	c.falseDowns, c.partitions = s.falseDowns, s.partitions
	c.sessions, c.sessErrs = s.sessions, s.sessErrs
	c.ops, c.opErrs = s.ops, s.opErrs
	c.joins, c.leaves, c.crashes, c.revives = s.joins, s.leaves, s.crashes, s.revives
	s.mu.Unlock()
	return c
}

// watchedPeers counts every (watcher, peer) edge across live detectors.
func (s *Swarm) watchedPeers() int {
	s.mu.Lock()
	dets := make([]*failure.Detector, 0, len(s.live)+len(s.dirs)*s.cfg.DirReplicas)
	for _, m := range s.live {
		if m.det != nil {
			dets = append(dets, m.det)
		}
	}
	for _, shard := range s.dirs {
		for _, r := range shard {
			dets = append(dets, r.det)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, det := range dets {
		n += det.Watched()
	}
	return n
}

// phaseStats turns two cumulative samples into one phase's deltas.
func (s *Swarm) phaseStats(name string, a, b counters) PhaseStats {
	wall := b.at.Sub(a.at).Seconds()
	if wall <= 0 {
		wall = 1e-9
	}
	p := PhaseStats{
		Name:            name,
		WallSeconds:     wall,
		Delivered:       b.delivered - a.delivered,
		LostQueue:       b.lostQueue - a.lostQueue,
		LostNoListener:  b.noListener - a.noListener,
		Frames:          b.frames - a.frames,
		Datagrams:       b.datagrams - a.datagrams,
		AcksStandalone:  b.acksSA - a.acksSA,
		AcksPiggybacked: b.acksPB - a.acksPB,
		Heartbeats:      b.det.HeartbeatsSent - a.det.HeartbeatsSent,
		DirLookups:      b.dir.Lookups() - a.dir.Lookups(),
		DirHits:         b.dir.Hits - a.dir.Hits,
		Downs:           b.downs - a.downs,
		Ups:             b.ups - a.ups,
		FalseDowns:      b.falseDowns - a.falseDowns,
		Partitions:      b.partitions - a.partitions,
		GossipRounds:    b.ae.Rounds - a.ae.Rounds,
		GossipPulls:     b.ae.Pulls - a.ae.Pulls,
		GossipDeltas:    b.ae.Deltas - a.ae.Deltas,
		RumorsSent:      b.det.RumorsSent - a.det.RumorsSent,
		RumorsRecv:      b.det.RumorsReceived - a.det.RumorsReceived,
		Ops:             b.ops - a.ops,
		Joins:           b.joins - a.joins,
		Leaves:          b.leaves - a.leaves,
		Crashes:         b.crashes - a.crashes,
		Revives:         b.revives - a.revives,
		Sessions:        b.sessions - a.sessions,
		SessionErrs:     b.sessErrs - a.sessErrs,
	}
	p.MsgsPerSec = float64(p.Delivered) / wall
	p.HeartbeatsPerSec = float64(p.Heartbeats) / wall
	if lk := p.DirLookups; lk > 0 {
		p.DirHitRate = float64(p.DirHits) / float64(lk)
	}
	return p
}

// buildReport assembles the final report from the three cumulative
// samples and the post-join footprint.
func (s *Swarm) buildReport(base, joinEnd, churnEnd counters, heap uint64, goro int) *Report {
	rep := &Report{
		Phases: []PhaseStats{
			s.phaseStats("join", base, joinEnd),
			s.phaseStats("churn", joinEnd, churnEnd),
		},
		WatchedPeers: s.watchedPeers(),
	}

	s.mu.Lock()
	rep.DownLatency = summarize(s.downLat)
	rep.UpLatency = summarize(s.upLat)
	rep.SessionLatency = summarize(s.sessLat)
	rep.LiveMembers = len(s.live)
	rep.CrashedMembers = len(s.crashedList)
	rep.Joined, rep.Left = s.joins, s.leaves
	rep.Crashed, rep.Revived = s.crashes, s.revives
	rep.EventLog = s.eventLog
	s.mu.Unlock()

	pop := rep.LiveMembers + s.cfg.DirShards*s.cfg.DirReplicas + s.cfg.Initiators
	rep.Goroutines = goro
	if pop > 0 {
		rep.HeapBytesPerDapplet = float64(heap) / float64(pop)
		rep.GoroutinesPerDapplet = float64(goro) / float64(pop)
	}
	return rep
}

// measureConvergence is the post-churn anti-entropy probe: it polls
// once per gossip round until every shard's replicas agree on their
// resolvable view, and returns the number of rounds waited (0 when they
// already agree, -1 when they never converged within the bound). Runs
// only when gossip is on and shards are actually replicated.
func (s *Swarm) measureConvergence() int {
	if s.cfg.GossipInterval <= 0 || s.cfg.DirReplicas < 2 {
		return 0
	}
	const maxRounds = 64
	for r := 0; r <= maxRounds; r++ {
		if s.dirsConverged() {
			return r
		}
		time.Sleep(s.cfg.GossipInterval) //wwlint:allow determinism real-time wait for gossip convergence measurement; not a lockstep path
	}
	return -1
}

// dirsConverged reports whether every shard's replicas currently share
// one resolvable-entry fingerprint.
func (s *Swarm) dirsConverged() bool {
	for _, shard := range s.dirs {
		if len(shard) < 2 {
			continue
		}
		fp := shard[0].svc.Fingerprint()
		for _, r := range shard[1:] {
			if r.svc.Fingerprint() != fp {
				return false
			}
		}
	}
	return true
}

// logf appends one lockstep event-log line.
func (s *Swarm) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	s.mu.Lock()
	s.eventLog = append(s.eventLog, line)
	s.mu.Unlock()
}
