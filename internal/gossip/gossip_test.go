package gossip_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// setDigest summarizes a setState: the count of contiguous values held
// from zero.
type setDigest struct {
	Have uint64
}

// Kind implements wire.Msg.
func (*setDigest) Kind() string { return "gsptest.digest" }

// AppendBinary implements wire.Msg.
func (m *setDigest) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendUvarint(dst, m.Have), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *setDigest) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Have = r.Uvarint()
	return r.Done()
}

// setDelta carries the values a peer is missing.
type setDelta struct {
	Vals []uint64
}

// Kind implements wire.Msg.
func (*setDelta) Kind() string { return "gsptest.delta" }

// AppendBinary implements wire.Msg.
func (m *setDelta) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(m.Vals)))
	for _, v := range m.Vals {
		dst = wire.AppendUvarint(dst, v)
	}
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *setDelta) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if n := r.Count(); n > 0 {
		m.Vals = make([]uint64, n)
		for i := range m.Vals {
			m.Vals[i] = r.Uvarint()
		}
	}
	return r.Done()
}

// note is a trivial rumor body.
type note struct {
	Text string
}

// Kind implements wire.Msg.
func (*note) Kind() string { return "gsptest.note" }

// AppendBinary implements wire.Msg.
func (m *note) AppendBinary(dst []byte) ([]byte, error) {
	return wire.AppendString(dst, m.Text), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *note) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Text = r.String()
	return r.Done()
}

func init() {
	wire.Register(&setDigest{})
	wire.Register(&setDelta{})
	wire.Register(&note{})
}

// setState is a toy Exchanger: the contiguous set {0..n-1}.
type setState struct {
	mu   sync.Mutex
	have uint64
}

func (s *setState) count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.have
}

func (s *setState) Digest() wire.Msg {
	return &setDigest{Have: s.count()}
}

func (s *setState) DeltaFor(peerDigest wire.Msg) (wire.Msg, bool) {
	pd, ok := peerDigest.(*setDigest)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if pd.Have >= s.have {
		return nil, false
	}
	vals := make([]uint64, 0, s.have-pd.Have)
	for v := pd.Have; v < s.have; v++ {
		vals = append(vals, v)
	}
	return &setDelta{Vals: vals}, true
}

func (s *setState) Apply(delta wire.Msg) {
	d, ok := delta.(*setDelta)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range d.Vals {
		if v == s.have {
			s.have++
		}
	}
}

// newWorld is a world whose dapplets run a 20 ms RTO, closed when t ends.
func newWorld(t *testing.T, opts ...netsim.Option) *world.World {
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, opts...)
	t.Cleanup(w.Close)
	return w
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gossipMesh builds n dapplets with engines, every engine peered with
// every other.
func gossipMesh(t *testing.T, w *world.World, n int, cfg gossip.Config) ([]*core.Dapplet, []*gossip.Engine) {
	t.Helper()
	daps := make([]*core.Dapplet, n)
	engs := make([]*gossip.Engine, n)
	refs := make([]wire.InboxRef, n)
	for i := 0; i < n; i++ {
		daps[i] = w.Dapplet(fmt.Sprintf("gh%d", i), "t", fmt.Sprintf("g%d", i))
		engs[i] = gossip.Attach(daps[i], cfg)
		refs[i] = gossip.Ref(daps[i].Addr())
	}
	for _, e := range engs {
		e.SetPeers(refs)
	}
	return daps, engs
}

func TestRumorReachesEveryPeerOnce(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(11))
	// Full fanout: a single broadcast (no re-gossip rounds) only
	// guarantees coverage when the first hop reaches everyone, so the
	// mesh is the engine's fanout of 3 plus the origin; the forwarding
	// storm that follows exercises dedup.
	const n = 4
	_, engs := gossipMesh(t, w, n, gossip.Config{Interval: 10 * time.Millisecond})

	var mu sync.Mutex
	heard := make(map[int]int)
	for i := 1; i < n; i++ {
		i := i
		engs[i].OnRumor("t", func(origin string, body wire.Msg) {
			m, ok := body.(*note)
			if !ok || origin != "g0" || m.Text != "hello" {
				t.Errorf("engine %d: rumor origin=%q body=%#v", i, origin, body)
				return
			}
			mu.Lock()
			heard[i]++
			mu.Unlock()
		})
	}
	if err := engs[0].Broadcast("t", &note{Text: "hello"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rumor reaching every peer", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(heard) == n-1
	})
	// The fanout graph echoes rumors back and forth; dedup must hold
	// deliveries at exactly one per engine. Give echoes time to land.
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for i, c := range heard {
		if c != 1 {
			t.Errorf("engine %d heard rumor %d times", i, c)
		}
	}
}

func TestRumorDuplicatesSuppressed(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(12))
	// Full fanout over a small mesh guarantees every engine receives the
	// same rumor from several directions.
	_, engs := gossipMesh(t, w, 4, gossip.Config{Interval: 10 * time.Millisecond})
	for _, e := range engs {
		e.OnRumor("t", func(string, wire.Msg) {})
	}
	for i := 0; i < 5; i++ {
		if err := engs[0].Broadcast("t", &note{Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "duplicate suppression activity", func() bool {
		var total gossip.Stats
		for _, e := range engs {
			total = total.Add(e.Stats())
		}
		return total.RumorsDuplicate > 0 && total.RumorsReceived >= 15
	})
}

func TestAntiEntropyConvergesPulledState(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(13))
	daps, engs := gossipMesh(t, w, 3, gossip.Config{Interval: 10 * time.Millisecond})
	_ = daps

	states := make([]*setState, 3)
	for i := range engs {
		states[i] = &setState{}
		engs[i].RegisterExchange("set", states[i])
	}
	// Seed all state on engine 0; pulls must spread it everywhere.
	states[0].mu.Lock()
	states[0].have = 32
	states[0].mu.Unlock()

	waitFor(t, "anti-entropy convergence", func() bool {
		return states[1].count() == 32 && states[2].count() == 32
	})
	var total gossip.Stats
	for _, e := range engs {
		total = total.Add(e.Stats())
	}
	if total.Pulls == 0 || total.DeltasApplied == 0 || total.PullsServed == 0 {
		t.Fatalf("stats after convergence: %+v", total)
	}
}

func TestBroadcastWithoutPeersIsHarmless(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(14))
	d := w.Dapplet("solo", "t", "solo")
	e := gossip.Attach(d, gossip.Config{Interval: 10 * time.Millisecond})
	if err := e.Broadcast("t", &note{Text: "void"}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.RumorsSent != 0 {
		t.Fatalf("rumors sent with no peers: %+v", st)
	}
}

func TestEngineStopsWithDapplet(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(15))
	daps, engs := gossipMesh(t, w, 2, gossip.Config{Interval: 5 * time.Millisecond})
	st := &setState{have: 4}
	engs[0].RegisterExchange("set", st)
	engs[1].RegisterExchange("set", &setState{})

	waitFor(t, "first rounds", func() bool { return engs[0].Stats().Rounds >= 2 })
	daps[0].Stop()
	r := engs[0].Stats().Rounds
	// The round loop must be dead: no further rounds after the dapplet
	// stopped (one in-flight round may still finish).
	time.Sleep(50 * time.Millisecond)
	if got := engs[0].Stats().Rounds; got > r+1 {
		t.Fatalf("engine kept running after stop: rounds %d -> %d", r, got)
	}
}

func TestSampleExcludesSelf(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(16))
	_, engs := gossipMesh(t, w, 2, gossip.Config{Interval: 5 * time.Millisecond})
	var mu sync.Mutex
	var origins []string
	engs[0].OnRumor("t", func(origin string, _ wire.Msg) {
		mu.Lock()
		origins = append(origins, origin)
		mu.Unlock()
	})
	// Engine 0's own broadcast must not be delivered back to itself even
	// though its peer list includes its own ref.
	if err := engs[0].Broadcast("t", &note{Text: "self"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	sort.Strings(origins)
	if len(origins) != 0 {
		t.Fatalf("self-delivered rumor: origins=%v", origins)
	}
}
