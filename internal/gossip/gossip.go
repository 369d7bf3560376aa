// Package gossip is the epidemic dissemination substrate: one svc-served
// protocol ("@gossip") carrying two interaction styles that its consumers
// compose into higher-level guarantees.
//
// Anti-entropy: a consumer registers an Exchanger for a topic and the
// engine periodically picks one random peer and pulls — it offers the
// local digest (a compact, topic-defined state summary such as the
// directory's per-writer version vector) and applies whatever delta the
// peer answers with. Symmetric periodic pulls converge every pair of
// replicas without either side replaying missed traffic; the directory
// uses this so a replica that was down through a churn phase rebuilds the
// live view within a bounded number of rounds of restarting.
//
// Rumor mongering: a consumer broadcasts a small fact (a failure
// suspicion, a refutation) and every receiving engine dispatches it to
// the topic's handler once — duplicates are suppressed by the rumor's
// (origin, sequence) identity — and forwards it to a few random peers
// until its hop budget is spent, the classic O(log n) epidemic spread.
// The failure detector's verdict quorums ride this: suspicions gathered
// from distinct origins count toward the Down quorum, and alive rumors
// cancel them.
//
// The engine owns no protocol semantics beyond delivery: digests, deltas
// and rumor bodies are nested encoded messages the topic's consumer
// defines. Round scheduling stops with the dapplet, so a crashed or
// stopped member leaks neither its loop nor late sends.
package gossip

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/wire"
)

// Inbox is the well-known inbox name rumor traffic arrives on; like
// "@fail" and "@dir" it is a service inbox, invisible to application
// code.
const Inbox = "@gossip"

// pullInbox carries anti-entropy digest/delta exchanges. It is separate
// from the rumor inbox so a verdict-rumor storm (thousands of small
// event-driven messages under churn) cannot head-of-line block the few
// large periodic pulls behind it — starved pulls were exactly how
// replica convergence stalled under swarm load.
const pullInbox = "@gossip.ae"

// Ref returns the gossip inbox address of the dapplet at addr.
func Ref(addr netsim.Addr) wire.InboxRef {
	return wire.InboxRef{Dapplet: addr, Inbox: Inbox}
}

// Config tunes an engine. Zero values select defaults.
type Config struct {
	// Interval is the anti-entropy round period: how often each
	// registered Exchanger pulls one random peer (default 500ms). Rumor
	// traffic is event-driven and does not wait for rounds.
	Interval time.Duration
	// Seed makes peer sampling deterministic for a given dapplet; zero
	// derives a seed from the dapplet name, so seeded worlds stay
	// replayable without coordination.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	return c
}

// fanout is how many random peers an originated or forwarded rumor is
// sent to.
const fanout = 3

// rumorTTL is a fresh rumor's hop budget; each forwarding peer
// decrements it and a rumor arriving with zero is delivered but not
// forwarded.
const rumorTTL = 3

// Exchanger is one topic's anti-entropy state: the engine calls Digest to
// summarize local state, forwards a peer's digest to DeltaFor to compute
// what that peer is missing, and folds a received delta in with Apply.
// Implementations are called from the engine's round loop and, for
// DeltaFor, from the goroutine delivering a peer's pull, where it must
// never wait; they do their own locking.
type Exchanger interface {
	// Digest returns a compact summary of local state (e.g. a version
	// vector), sent with every pull.
	Digest() wire.Msg
	// DeltaFor returns the update bringing a peer at the given digest up
	// to date, or ok=false when the digest already covers local state.
	DeltaFor(peerDigest wire.Msg) (delta wire.Msg, ok bool)
	// Apply folds a peer's delta into local state.
	Apply(delta wire.Msg)
}

// RumorHandler consumes one rumor delivery: the originating dapplet's
// name and the decoded rumor body. It runs on the goroutine delivering
// the rumor — the dapplet's receive goroutine — and must never wait, so
// it must not Broadcast: a reaction that does is posted to a thread.
type RumorHandler func(origin string, body wire.Msg)

// Stats counts an engine's gossip activity.
type Stats struct {
	// Rounds is the number of anti-entropy rounds run (one pull per
	// registered topic per round).
	Rounds uint64
	// Pulls is the number of pull requests issued.
	Pulls uint64
	// PullsServed is the number of pull requests answered.
	PullsServed uint64
	// DeltasApplied is the number of non-empty deltas folded into local
	// state (from this engine's own pulls).
	DeltasApplied uint64
	// RumorsSent is the number of rumor transmissions — originated
	// broadcasts and epidemic forwards, one per destination peer.
	RumorsSent uint64
	// RumorsReceived is the number of distinct rumors delivered to a
	// topic handler.
	RumorsReceived uint64
	// RumorsDuplicate is the number of arriving rumors suppressed as
	// already seen.
	RumorsDuplicate uint64
}

// Add returns the element-wise sum of two stats snapshots; the swarm
// harness aggregates its members' engines with it.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Rounds:          s.Rounds + o.Rounds,
		Pulls:           s.Pulls + o.Pulls,
		PullsServed:     s.PullsServed + o.PullsServed,
		DeltasApplied:   s.DeltasApplied + o.DeltasApplied,
		RumorsSent:      s.RumorsSent + o.RumorsSent,
		RumorsReceived:  s.RumorsReceived + o.RumorsReceived,
		RumorsDuplicate: s.RumorsDuplicate + o.RumorsDuplicate,
	}
}

// rumorKey is a rumor's identity for duplicate suppression.
type rumorKey struct {
	origin string
	seq    uint64
}

// Engine is one dapplet's gossip endpoint. All methods are safe for
// concurrent use.
type Engine struct {
	d   *core.Dapplet
	cfg Config

	// callerOnce creates the pull svc.Caller lazily: an engine that only
	// rumors (every swarm member) never pays the caller's reply inbox.
	callerOnce sync.Once
	caller     *svc.Caller
	loopOnce   sync.Once

	mu       sync.Mutex
	exch     map[string]Exchanger
	onRumor  map[string]RumorHandler
	peers    []wire.InboxRef
	peersFn  func() []wire.InboxRef
	rng      *rand.Rand
	seq      uint64
	seen     map[rumorKey]struct{}
	seenQ    []rumorKey
	stopping bool

	rounds   atomic.Uint64
	pulls    atomic.Uint64
	served   atomic.Uint64
	applied  atomic.Uint64
	sent     atomic.Uint64
	received atomic.Uint64
	dups     atomic.Uint64
}

// Attach equips a dapplet with a gossip engine serving the "@gossip"
// inbox. The engine is idle until a consumer registers an Exchanger
// (which starts the round loop) or a rumor topic; peers must be supplied
// with SetPeers or SetPeerSource before anything spreads.
func Attach(d *core.Dapplet, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(hashName(d.Name()))
	}
	e := &Engine{
		d:       d,
		cfg:     cfg,
		exch:    make(map[string]Exchanger),
		onRumor: make(map[string]RumorHandler),
		rng:     rand.New(rand.NewSource(seed)),
		seen:    make(map[rumorKey]struct{}),
	}
	svc.Serve(d, Inbox, svc.Handlers{
		"gsp.rumor": e.handleRumor,
	})
	svc.Serve(d, pullInbox, svc.Handlers{
		"gsp.pull": e.handlePull,
	})
	d.OnStop(func() {
		e.mu.Lock()
		e.stopping = true
		e.mu.Unlock()
	})
	return e
}

// hashName is FNV-1a over the dapplet name, the engine's default rng
// seed.
func hashName(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Stats returns a snapshot of the engine's gossip counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Rounds:          e.rounds.Load(),
		Pulls:           e.pulls.Load(),
		PullsServed:     e.served.Load(),
		DeltasApplied:   e.applied.Load(),
		RumorsSent:      e.sent.Load(),
		RumorsReceived:  e.received.Load(),
		RumorsDuplicate: e.dups.Load(),
	}
}

// SetPeers installs a static peer set: the "@gossip" inbox refs of the
// dapplets to exchange with (a directory replica names the other
// replicas of its shard). Any entry matching this dapplet's own address
// is skipped at use.
func (e *Engine) SetPeers(refs []wire.InboxRef) {
	cp := append([]wire.InboxRef(nil), refs...)
	e.mu.Lock()
	e.peers = cp
	e.peersFn = nil
	e.mu.Unlock()
}

// SetPeerSource installs a dynamic peer provider, consulted on every
// round and rumor transmission; it replaces any static set. The failure
// detector's live-peer view is the canonical source. The provider runs
// outside the engine's lock and must be safe for concurrent use.
func (e *Engine) SetPeerSource(fn func() []wire.InboxRef) {
	e.mu.Lock()
	e.peersFn = fn
	e.mu.Unlock()
}

// RegisterExchange registers the topic's anti-entropy state and starts
// the engine's round loop on first use.
func (e *Engine) RegisterExchange(topic string, x Exchanger) {
	e.mu.Lock()
	e.exch[topic] = x
	e.mu.Unlock()
	e.loopOnce.Do(func() { e.d.Spawn(e.loop) })
}

// OnRumor registers the topic's rumor handler.
func (e *Engine) OnRumor(topic string, f RumorHandler) {
	e.mu.Lock()
	e.onRumor[topic] = f
	e.mu.Unlock()
}

// Broadcast originates one rumor on the topic: the body travels to
// fanout random peers with a fresh TTL and spreads epidemically from
// there. The local topic handler does not hear it (the originator already
// knows), and a later echo of it is suppressed as a duplicate. It waits
// for each peer's window as an outbox send does, so never call it on the
// receive goroutine or a timer.
func (e *Engine) Broadcast(topic string, body wire.Msg) error {
	enc, err := wire.EncodeBody(body)
	if err != nil {
		return err
	}
	defer enc.Release()
	e.mu.Lock()
	e.seq++
	seq := e.seq
	e.rememberLocked(rumorKey{origin: e.d.Name(), seq: seq})
	e.mu.Unlock()
	m := &rumorMsg{
		Topic:  topic,
		Origin: e.d.Name(),
		Seq:    seq,
		TTL:    rumorTTL,
		BodyID: enc.ID(),
		Body:   enc.Bytes(),
	}
	for _, p := range e.sample(fanout, netsim.Addr{}) {
		if e.d.Transport().AwaitWindow(p.Dapplet) == nil {
			e.send(p, m)
		}
	}
	return nil
}

// loop is the engine's anti-entropy round driver: one goroutine per
// engine, stopping with the dapplet.
func (e *Engine) loop() {
	t := time.NewTicker(e.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-e.d.Stopped():
			return
		case <-t.C:
			e.round()
		}
	}
}

// round runs one anti-entropy round: each registered topic pulls one
// random peer.
func (e *Engine) round() {
	e.mu.Lock()
	if e.stopping {
		e.mu.Unlock()
		return
	}
	topics := make([]string, 0, len(e.exch))
	for t := range e.exch {
		topics = append(topics, t)
	}
	e.mu.Unlock()
	e.rounds.Add(1)
	for _, topic := range topics {
		peers := e.sample(1, netsim.Addr{})
		if len(peers) == 0 {
			continue
		}
		e.pull(topic, peers[0])
	}
}

// pull performs one digest/delta exchange with a peer for a topic.
func (e *Engine) pull(topic string, peer wire.InboxRef) {
	e.mu.Lock()
	x := e.exch[topic]
	e.mu.Unlock()
	if x == nil {
		return
	}
	enc, err := wire.EncodeBody(x.Digest())
	if err != nil {
		return
	}
	req := &pullMsg{Topic: topic, BodyID: enc.ID(), Body: enc.Bytes()}
	e.pulls.Add(1)
	// A generous deadline: under load a delta that arrives late is still
	// worth applying (one applied delta is a full catch-up), and a pull in
	// flight blocks only this engine's own round loop.
	ctx, cancel := context.WithTimeout(context.Background(), 8*e.cfg.Interval) //wwlint:allow ctxcheck engine round-loop pull with no caller; bounded by 8 intervals
	defer cancel()
	var rep deltaMsg
	// Pulls address the peer's anti-entropy inbox; peer refs name the
	// rumor inbox, so redirect by dapplet address.
	pr := wire.InboxRef{Dapplet: peer.Dapplet, Inbox: pullInbox}
	err = e.pullCaller().Call(ctx, pr, req, &rep)
	enc.Release()
	if err != nil || rep.Empty {
		return
	}
	delta, err := wire.DecodeBody(rep.BodyID, rep.Body)
	if err != nil {
		return
	}
	x.Apply(delta)
	e.applied.Add(1)
}

// pullCaller returns the engine's svc caller, created on first pull.
func (e *Engine) pullCaller() *svc.Caller {
	e.callerOnce.Do(func() { e.caller = svc.NewCaller(e.d) })
	return e.caller
}

// handlePull serves a peer's digest/delta exchange.
func (e *Engine) handlePull(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*pullMsg)
	e.mu.Lock()
	x := e.exch[m.Topic]
	e.mu.Unlock()
	if x == nil {
		return nil, &svc.Error{Code: svc.CodeUser, Msg: "gossip: no exchanger for topic " + m.Topic}
	}
	digest, err := wire.DecodeBody(m.BodyID, m.Body)
	if err != nil {
		return nil, &svc.Error{Code: svc.CodeBadRequest, Msg: err.Error()}
	}
	e.served.Add(1)
	delta, ok := x.DeltaFor(digest)
	if !ok {
		return &deltaMsg{Topic: m.Topic, Empty: true}, nil
	}
	enc, err := wire.EncodeBody(delta)
	if err != nil {
		return nil, err
	}
	// The svc server marshals the reply before dispatch returns, so the
	// encode buffer can only be released after; leak-free because the
	// reply copies the bytes into its own frame. Copy into the reply to
	// keep the release local.
	body := append([]byte(nil), enc.Bytes()...)
	rep := &deltaMsg{Topic: m.Topic, BodyID: enc.ID(), Body: body}
	enc.Release()
	return rep, nil
}

// handleRumor delivers and forwards one arriving rumor.
func (e *Engine) handleRumor(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*rumorMsg)
	key := rumorKey{origin: m.Origin, seq: m.Seq}
	e.mu.Lock()
	if _, dup := e.seen[key]; dup {
		e.mu.Unlock()
		e.dups.Add(1)
		return nil, nil
	}
	e.rememberLocked(key)
	h := e.onRumor[m.Topic]
	e.mu.Unlock()
	if h != nil {
		body, err := wire.DecodeBody(m.BodyID, m.Body)
		if err == nil {
			e.received.Add(1)
			h(m.Origin, body)
		}
	}
	if m.TTL > 0 {
		fwd := &rumorMsg{
			Topic:  m.Topic,
			Origin: m.Origin,
			Seq:    m.Seq,
			TTL:    m.TTL - 1,
			BodyID: m.BodyID,
			Body:   m.Body,
		}
		// Forwarded before the handler returns, without waiting for a
		// window: the handler runs on the receive goroutine. The send
		// copies the body into its transmit frames.
		for _, p := range e.sample(fanout, c.From()) {
			e.send(p, fwd)
		}
	}
	return nil, nil
}

// send transmits one rumor to one peer, counting it, without waiting.
func (e *Engine) send(p wire.InboxRef, m *rumorMsg) {
	if e.d.SendDirect(p, "", m) == nil {
		e.sent.Add(1)
	}
}

// sample returns up to k distinct peers drawn from the current peer set,
// excluding this dapplet's own address and the given arrival address.
func (e *Engine) sample(k int, arrivedFrom netsim.Addr) []wire.InboxRef {
	e.mu.Lock()
	fn := e.peersFn
	var list []wire.InboxRef
	if fn == nil {
		list = e.peers
	}
	stopping := e.stopping
	e.mu.Unlock()
	if stopping {
		return nil
	}
	if fn != nil {
		list = fn()
	}
	self := e.d.Addr()
	none := netsim.Addr{}
	cand := make([]wire.InboxRef, 0, len(list))
	for _, p := range list {
		if p.Dapplet == self || (arrivedFrom != none && p.Dapplet == arrivedFrom) {
			continue
		}
		cand = append(cand, p)
	}
	if len(cand) == 0 {
		return nil
	}
	if k >= len(cand) {
		return cand
	}
	// Partial Fisher-Yates under the engine's seeded rng: deterministic
	// for a given dapplet and call sequence.
	e.mu.Lock()
	for i := 0; i < k; i++ {
		j := i + e.rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	e.mu.Unlock()
	return cand[:k]
}

// dedupCap bounds the remembered rumor identities; beyond it the oldest
// identities are forgotten first.
const dedupCap = 4096

// rememberLocked records a rumor identity, evicting the oldest beyond
// dedupCap. Caller holds e.mu.
func (e *Engine) rememberLocked(key rumorKey) {
	e.seen[key] = struct{}{}
	e.seenQ = append(e.seenQ, key)
	if len(e.seenQ) > dedupCap {
		old := e.seenQ[0]
		e.seenQ = e.seenQ[1:]
		delete(e.seen, old)
	}
}
