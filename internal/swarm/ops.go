package swarm

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/gossip"
	"repro/internal/transport"
	"repro/internal/wire"
)

// opTimeout bounds one op's directory round trip (register, remove,
// session lookup). Generous: under a 100k-member burst the replicas
// answer late, not never, and a timed-out registration only degrades
// the stats.
const opTimeout = 15 * time.Second

// awaitBound bounds a lockstep verdict await; a verdict that needs
// longer than this at lockstep scale means the detection pipeline
// melted, and the run reports it as an error.
const awaitBound = 30 * time.Second

// watchPair names one awaited verdict: watcher's detector, watched
// peer.
type watchPair struct {
	watcher string
	det     *failure.Detector
	peer    string
}

// pairNames returns the sorted watcher names, for the event log.
func pairNames(pairs []watchPair) string {
	names := make([]string, len(pairs))
	for i, p := range pairs {
		names[i] = p.watcher
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// awaitState polls until every pair's verdict for its peer is want.
func awaitState(pairs []watchPair, want failure.State) error {
	deadline := time.Now().Add(awaitBound) //wwlint:allow determinism real-time bound on verdict convergence; the lockstep digest folds the event log, not these stamps
	for {
		settled := true
		for _, p := range pairs {
			st, ok := p.det.Status(p.peer)
			if !ok || st != want {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) { //wwlint:allow determinism real-time deadline check for the await bound
			for _, p := range pairs {
				st, ok := p.det.Status(p.peer)
				if !ok || st != want {
					return fmt.Errorf("swarm: %s's verdict for %s stuck at %v (watched=%v), want %v",
						p.watcher, p.peer, st, ok, want)
				}
			}
		}
		time.Sleep(2 * time.Millisecond) //wwlint:allow determinism real-time poll of detector verdicts; bounded by awaitBound
	}
}

// sampleLive picks up to k distinct live members under s.mu.
func (s *Swarm) sampleLive(rng *rand.Rand, k int) []*member {
	if k > len(s.live) {
		k = len(s.live)
	}
	out := make([]*member, 0, k)
	for attempts := 0; len(out) < k && attempts < 4*k+8; attempts++ {
		c := s.live[rng.Intn(len(s.live))]
		dup := false
		for _, have := range out {
			if have == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// removeLive swap-removes a member from the live slice under s.mu.
func (s *Swarm) removeLive(m *member) {
	last := s.live[len(s.live)-1]
	s.live[m.liveIdx] = last
	last.liveIdx = m.liveIdx
	s.live = s.live[:len(s.live)-1]
	m.live = false
}

// appendLive adds a member to the live slice under s.mu.
func (s *Swarm) appendLive(m *member) {
	m.live = true
	m.liveIdx = len(s.live)
	s.live = append(s.live, m)
}

// pickRemovable picks a random live member for leave/crash, or nil when
// the population floor (half the target size) would be crossed.
func (s *Swarm) pickRemovable(rng *rand.Rand) *member {
	if len(s.live) <= s.cfg.N/2 || len(s.live) == 0 {
		return nil
	}
	return s.live[rng.Intn(len(s.live))]
}

// watchersOf collects the detectors that hold a verdict on m: its live
// edge peers plus the replicas of its directory shard. Caller holds
// s.mu.
func (s *Swarm) watchersOf(m *member) []watchPair {
	pairs := make([]watchPair, 0, len(m.edges)+s.cfg.DirReplicas)
	for e := range m.edges {
		if p := s.members[e]; p != nil && p.live {
			pairs = append(pairs, watchPair{watcher: p.name, det: p.det, peer: m.name})
		}
	}
	for _, r := range s.dirs[s.cluster.ShardOf(m.name)] {
		pairs = append(pairs, watchPair{watcher: r.name, det: r.det, peer: m.name})
	}
	return pairs
}

// opJoin launches a fresh member, wires its symmetric watch edges (ring
// neighbors plus its shard's replicas), and registers it in the
// directory.
func (s *Swarm) opJoin(rng *rand.Rand) (string, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	name := fmt.Sprintf("m%06d", id)
	host := memberHost(id % s.hosts)
	m := &member{name: name, host: host, edges: make(map[string]bool, s.cfg.RingWatch+1)}
	s.members[name] = m
	ini := s.inits[id%len(s.inits)]
	s.mu.Unlock()

	if _, err := s.RT.Launch(host, typeMember, name,
		core.WithQueueCap(memberQueueCap), core.WithTransportConfig(s.memberRel)); err != nil {
		return name, fmt.Errorf("swarm: join %s: %w", name, err)
	}

	s.mu.Lock()
	addr := m.d.Addr()
	for _, t := range s.sampleLive(rng, s.cfg.RingWatch) {
		m.det.Watch(t.name, t.d.Addr())
		t.det.Watch(name, addr)
		m.edges[t.name] = true
		t.edges[name] = true
	}
	for _, r := range s.dirs[s.cluster.ShardOf(name)] {
		m.det.Watch(r.name, r.d.Addr())
	}
	s.appendLive(m)
	s.joins++
	s.ops++
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout) //wwlint:allow ctxcheck churn driver op with no caller context; bounded by opTimeout
	err := ini.client.Register(ctx, directory.Entry{Name: name, Type: typeMember, Addr: addr})
	cancel()
	if err != nil {
		s.mu.Lock()
		s.opErrs++
		s.mu.Unlock()
	}
	if s.cfg.Lockstep {
		s.logf("join %s", name)
	}
	return name, nil
}

// opLeave gracefully retires a member: edge peers stop watching it, its
// directory entry is removed (which unwatches it at the replicas), and
// the process stops. Left members never return.
func (s *Swarm) opLeave(rng *rand.Rand) (bool, error) {
	s.mu.Lock()
	m := s.pickRemovable(rng)
	if m == nil {
		s.mu.Unlock()
		return false, nil
	}
	s.removeLive(m)
	for e := range m.edges {
		if p := s.members[e]; p != nil && p.live {
			p.det.Unwatch(m.name)
			delete(p.edges, m.name)
		}
	}
	delete(s.revivedAt, m.name)
	ini := s.inits[int(s.leaves)%len(s.inits)]
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout) //wwlint:allow ctxcheck churn driver op with no caller context; bounded by opTimeout
	err := ini.client.Remove(ctx, m.name)
	cancel()
	if cerr := s.RT.Crash(m.name); cerr != nil {
		return true, fmt.Errorf("swarm: leave %s: %w", m.name, cerr)
	}
	st := m.det.Stats()
	rs := m.d.Transport().Stats()
	gs := gossipStats(m)

	s.mu.Lock()
	s.retire(st, rs, gs)
	delete(s.members, m.name)
	s.leaves++
	s.ops++
	if err != nil {
		s.opErrs++
	}
	s.mu.Unlock()
	if s.cfg.Lockstep {
		s.logf("leave %s", m.name)
	}
	return true, nil
}

// opCrash kills a member abruptly; its watchers keep watching and must
// reach Down on their own. In lockstep mode the op awaits every
// watcher's Down verdict before it is logged.
func (s *Swarm) opCrash(rng *rand.Rand) (bool, error) {
	s.mu.Lock()
	m := s.pickRemovable(rng)
	if m == nil {
		s.mu.Unlock()
		return false, nil
	}
	s.removeLive(m)
	delete(s.revivedAt, m.name)
	var pairs []watchPair
	if s.cfg.Lockstep {
		pairs = s.watchersOf(m)
	}
	s.mu.Unlock()

	if err := s.RT.Crash(m.name); err != nil {
		return true, fmt.Errorf("swarm: crash %s: %w", m.name, err)
	}
	st := m.det.Stats()
	rs := m.d.Transport().Stats()
	gs := gossipStats(m)

	s.mu.Lock()
	s.retire(st, rs, gs)
	// Stamped after the crash completed: a verdict cannot land before
	// the process is actually dead, so the latency sample starts here.
	s.crashedAt[m.name] = time.Now() //wwlint:allow determinism wall-clock crash stamp feeds detection-latency metrics, not the event log
	s.crashedList = append(s.crashedList, m.name)
	s.crashes++
	s.ops++
	s.mu.Unlock()

	if s.cfg.Lockstep {
		if err := awaitState(pairs, failure.Down); err != nil {
			return true, fmt.Errorf("swarm: crash %s: %w", m.name, err)
		}
		s.logf("crash %s down=[%s]", m.name, pairNames(pairs))
	}
	return true, nil
}

// opRevive restarts a crashed member as a higher incarnation at a new
// address: surviving edge peers (which held it Down the whole time) are
// re-watched back, dead edges are replaced if none survive, and the
// member re-registers. In lockstep mode the op awaits every surviving
// watcher's Up verdict — driven by the new incarnation's heartbeats,
// never forged by the harness — before it is logged.
func (s *Swarm) opRevive(rng *rand.Rand) (bool, error) {
	s.mu.Lock()
	if len(s.crashedList) == 0 {
		s.mu.Unlock()
		return false, nil
	}
	i := rng.Intn(len(s.crashedList))
	name := s.crashedList[i]
	s.crashedList[i] = s.crashedList[len(s.crashedList)-1]
	s.crashedList = s.crashedList[:len(s.crashedList)-1]
	s.mu.Unlock()

	d, err := s.RT.Restart(name)
	if err != nil {
		return true, fmt.Errorf("swarm: revive %s: %w", name, err)
	}

	s.mu.Lock()
	m := s.members[name]
	addr := d.Addr()
	var pairs []watchPair
	for e := range m.edges {
		p := s.members[e]
		if p != nil && p.live {
			m.det.Watch(e, p.d.Addr())
			if s.cfg.Lockstep {
				pairs = append(pairs, watchPair{watcher: p.name, det: p.det, peer: name})
			}
		} else {
			delete(m.edges, e)
			if p != nil {
				delete(p.edges, name)
			}
		}
	}
	if len(m.edges) == 0 {
		// Every old neighbor died while we were down: pick fresh ones so
		// the member stays mesh-monitored.
		for _, t := range s.sampleLive(rng, s.cfg.RingWatch) {
			m.det.Watch(t.name, t.d.Addr())
			t.det.Watch(name, addr)
			m.edges[t.name] = true
			t.edges[name] = true
		}
	}
	for _, r := range s.dirs[s.cluster.ShardOf(name)] {
		m.det.Watch(r.name, r.d.Addr())
		if s.cfg.Lockstep {
			pairs = append(pairs, watchPair{watcher: r.name, det: r.det, peer: name})
		}
	}
	s.appendLive(m)
	delete(s.crashedAt, name)
	s.revivedAt[name] = time.Now() //wwlint:allow determinism wall-clock revive stamp feeds recovery-latency metrics, not the event log
	s.revives++
	s.ops++
	ini := s.inits[int(s.revives)%len(s.inits)]
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout) //wwlint:allow ctxcheck churn driver op with no caller context; bounded by opTimeout
	rerr := ini.client.Register(ctx, directory.Entry{Name: name, Type: typeMember, Addr: addr})
	cancel()
	if rerr != nil {
		s.mu.Lock()
		s.opErrs++
		s.mu.Unlock()
	}

	if s.cfg.Lockstep {
		if err := awaitState(pairs, failure.Up); err != nil {
			return true, fmt.Errorf("swarm: revive %s: %w", name, err)
		}
		s.logf("revive %s up=[%s]", name, pairNames(pairs))
	}
	return true, nil
}

// opSession drives one initiator session: resolve a live member through
// the directory, then one echo round trip to the resolved address. idx
// selects the initiator; negative means round-robin (lockstep).
func (s *Swarm) opSession(ctx context.Context, idx int, rng *rand.Rand) {
	s.mu.Lock()
	if len(s.live) == 0 {
		s.mu.Unlock()
		return
	}
	target := s.live[rng.Intn(len(s.live))].name
	if idx < 0 {
		idx = s.nextIni % len(s.inits)
		s.nextIni++
	}
	ini := s.inits[idx%len(s.inits)]
	s.mu.Unlock()

	start := time.Now() //wwlint:allow determinism wall-clock session-latency sample; not part of the event log
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	e, err := ini.client.MustLookup(ctx, target)
	if err == nil {
		var rep echoMsg
		err = ini.caller.Call(ctx, wire.InboxRef{Dapplet: e.Addr, Inbox: SessionInbox},
			&echoMsg{Nonce: rng.Uint64()}, &rep)
	}
	cancel()
	lat := time.Since(start)

	s.mu.Lock()
	s.sessions++
	if err != nil {
		s.sessErrs++
	} else if len(s.sessLat) < maxSamples {
		s.sessLat = append(s.sessLat, lat)
	}
	s.mu.Unlock()
	if s.cfg.Lockstep {
		if err != nil {
			s.logf("session %s err", target)
		} else {
			s.logf("session %s ok", target)
		}
	}
}

// retire folds a stopped member's detector, transport and gossip
// counters into the running totals so phase deltas stay monotonic
// across churn. Caller holds s.mu.
func (s *Swarm) retire(st failure.Stats, rs transport.Stats, gs gossip.Stats) {
	s.retired.HeartbeatsSent += st.HeartbeatsSent
	s.retiredRel = addRelStats(s.retiredRel, rs)
	s.retiredGsp = s.retiredGsp.Add(gs)
}

// gossipStats snapshots a member's gossip counters (zero when the swarm
// runs without gossip).
func gossipStats(m *member) gossip.Stats {
	if m.gsp == nil {
		return gossip.Stats{}
	}
	return m.gsp.Stats()
}

// partitionDriver injects host partitions at the configured rate until
// stopped: each op isolates one live member's host from every other
// host, holds the cut for PartitionDur, then heals it.
func (s *Swarm) partitionDriver(rng *rand.Rand, stop <-chan struct{}) {
	gap := time.Duration(float64(time.Second) / s.cfg.PartitionRate)
	if gap < time.Millisecond {
		gap = time.Millisecond
	}
	tick := time.NewTicker(gap)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.opPartition(rng, stop)
		}
	}
}

// opPartition cuts one random live member's host off, waits out
// PartitionDur (or the stop signal), and heals. The cut is applied
// through applyPartitionsLocked so overlapping injections compose.
func (s *Swarm) opPartition(rng *rand.Rand, stop <-chan struct{}) {
	s.mu.Lock()
	if len(s.live) == 0 {
		s.mu.Unlock()
		return
	}
	host := s.live[rng.Intn(len(s.live))].host
	if s.parted[host] {
		s.mu.Unlock()
		return
	}
	s.parted[host] = true
	s.partitions++
	s.applyPartitionsLocked()
	s.mu.Unlock()

	select {
	case <-stop:
	case <-time.After(s.cfg.PartitionDur):
	}

	s.mu.Lock()
	delete(s.parted, host)
	s.applyPartitionsLocked()
	s.mu.Unlock()
}

// applyPartitionsLocked pushes the current isolated-host set to the
// network: every isolated host becomes its own partition group and the
// unnamed rest form the implicit majority group. Caller holds s.mu.
func (s *Swarm) applyPartitionsLocked() {
	if len(s.parted) == 0 {
		s.Net.Heal()
		return
	}
	groups := make([][]string, 0, len(s.parted))
	for h := range s.parted {
		groups = append(groups, []string{h})
	}
	s.Net.Partition(groups...)
}

// addRelStats sums the transport counters the report tracks.
func addRelStats(a, b transport.Stats) transport.Stats {
	a.DataSent += b.DataSent
	a.Retransmits += b.Retransmits
	a.FastRetransmits += b.FastRetransmits
	a.AcksSent += b.AcksSent
	a.AcksPiggybacked += b.AcksPiggybacked
	a.DatagramsOut += b.DatagramsOut
	return a
}
