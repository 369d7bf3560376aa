package directory

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/gossip"
	"repro/internal/wire"
)

// Anti-entropy: replicas of a shard periodically reconcile through the
// gossip substrate so a replica that was down through a churn phase
// converges to the live view without anyone replaying missed fan-outs.
//
// The digest is the replica's version vector (per-writer high-water
// sequence numbers); the invariant every replica maintains is that
// vec[w] ≥ s implies no record whose governing write is (w, s' ≤ s) is
// missing locally. Direct writes keep it through per-writer FIFO
// delivery; deltas keep it because the receiver merges the sender's full
// vector only after every delta record has been applied — the sender
// vouches for everything below its vector, and the records above the
// receiver's are exactly what it just sent. Records reconcile by
// last-writer-wins on the (lamport, writer, seq) stamp, so both replicas
// settle on the same winner regardless of arrival order, and tombstones
// travel like any record so removals and expiries propagate too.

// GossipTopic is the anti-entropy topic directory replicas exchange on.
const GossipTopic = "dir"

// dirDigestMsg is a replica's version vector, sorted by writer: the
// digest offered with every anti-entropy pull.
type dirDigestMsg struct {
	Writers []string
	Seqs    []uint64
}

// Kind implements wire.Msg.
func (*dirDigestMsg) Kind() string { return "dir.digest" }

// AppendBinary implements wire.Msg.
func (m *dirDigestMsg) AppendBinary(dst []byte) ([]byte, error) {
	return appendVector(dst, m.Writers, m.Seqs), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *dirDigestMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Writers, m.Seqs = readVector(r)
	return r.Done()
}

// dirDeltaMsg answers a pull with the records the peer's digest shows it
// is missing, live or tombstoned, plus the sender's own version vector
// for the receiver to merge after applying them.
type dirDeltaMsg struct {
	Recs    []record
	Writers []string
	Seqs    []uint64
}

// Kind implements wire.Msg.
func (*dirDeltaMsg) Kind() string { return "dir.delta" }

// AppendBinary implements wire.Msg.
func (m *dirDeltaMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(m.Recs)))
	for i := range m.Recs {
		dst = m.Recs[i].append(dst)
	}
	return appendVector(dst, m.Writers, m.Seqs), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *dirDeltaMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Recs = nil
	if n := r.Count(); n > 0 {
		m.Recs = make([]record, n)
		for i := range m.Recs {
			m.Recs[i].read(r)
		}
	}
	m.Writers, m.Seqs = readVector(r)
	return r.Done()
}

// appendVector encodes a version vector's parallel slices.
func appendVector(dst []byte, writers []string, seqs []uint64) []byte {
	dst = wire.AppendStringSlice(dst, writers)
	dst = wire.AppendUvarint(dst, uint64(len(seqs)))
	for _, s := range seqs {
		dst = wire.AppendUvarint(dst, s)
	}
	return dst
}

// readVector decodes what appendVector wrote.
func readVector(r *wire.Reader) (writers []string, seqs []uint64) {
	writers = r.StringSlice()
	if n := r.Count(); n > 0 {
		seqs = make([]uint64, n)
		for i := range seqs {
			seqs[i] = r.Uvarint()
		}
	}
	return writers, seqs
}

func init() {
	wire.Register(&dirDigestMsg{})
	wire.Register(&dirDeltaMsg{})
}

// vectorSlices flattens a version vector into sorted parallel slices,
// the deterministic wire form.
func vectorSlices(vec map[string]uint64) ([]string, []uint64) {
	if len(vec) == 0 {
		return nil, nil
	}
	writers := make([]string, 0, len(vec))
	for w := range vec {
		writers = append(writers, w)
	}
	sort.Strings(writers)
	seqs := make([]uint64, len(writers))
	for i, w := range writers {
		seqs[i] = vec[w]
	}
	return writers, seqs
}

// digest snapshots the replica's version vector as the anti-entropy
// digest.
func (s *Service) digest() *dirDigestMsg {
	s.mu.Lock()
	writers, seqs := vectorSlices(s.vec)
	s.mu.Unlock()
	return &dirDigestMsg{Writers: writers, Seqs: seqs}
}

// deltaFor computes the records a peer at the given digest is missing:
// every record whose governing stamp exceeds the peer's high-water mark
// for its writer. ok is false when the peer already covers local state.
func (s *Service) deltaFor(pd *dirDigestMsg) (*dirDeltaMsg, bool) {
	peer := make(map[string]uint64, len(pd.Writers))
	for i, w := range pd.Writers {
		if i < len(pd.Seqs) {
			peer[w] = pd.Seqs[i]
		}
	}
	s.mu.Lock()
	var recs []record
	for _, r := range s.entries {
		if r.Stamp.Seq > peer[r.Stamp.Writer] {
			recs = append(recs, r)
		}
	}
	writers, seqs := vectorSlices(s.vec)
	s.mu.Unlock()
	if len(recs) == 0 {
		return nil, false
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Entry.Name < recs[j].Entry.Name })
	return &dirDeltaMsg{Recs: recs, Writers: writers, Seqs: seqs}, true
}

// applyDelta folds a peer's delta in: each record goes through put, and
// the sender's vector merges only once all records have — merging it
// earlier would vouch for records not yet applied.
func (s *Service) applyDelta(m *dirDeltaMsg) {
	for _, r := range m.Recs {
		s.put(r)
	}
	s.mu.Lock()
	for i, w := range m.Writers {
		if i < len(m.Seqs) && m.Seqs[i] > s.vec[w] {
			s.vec[w] = m.Seqs[i]
		}
	}
	s.mu.Unlock()
}

// dirExchange adapts a Service to gossip.Exchanger.
type dirExchange struct{ s *Service }

// Digest implements gossip.Exchanger.
func (x dirExchange) Digest() wire.Msg { return x.s.digest() }

// DeltaFor implements gossip.Exchanger.
func (x dirExchange) DeltaFor(peerDigest wire.Msg) (wire.Msg, bool) {
	pd, ok := peerDigest.(*dirDigestMsg)
	if !ok {
		return nil, false
	}
	d, ok := x.s.deltaFor(pd)
	if !ok {
		return nil, false
	}
	return d, true
}

// Apply implements gossip.Exchanger.
func (x dirExchange) Apply(delta wire.Msg) {
	if m, ok := delta.(*dirDeltaMsg); ok {
		x.s.applyDelta(m)
	}
}

// BindGossip registers the replica on the engine's "dir" anti-entropy
// topic, starting periodic reconciliation. The engine's peers should be
// the gossip inboxes of the other replicas of this shard.
func BindGossip(g *gossip.Engine, s *Service) {
	g.RegisterExchange(GossipTopic, dirExchange{s})
}

// VersionVector returns a copy of the replica's version vector — each
// writer's highest applied mutation sequence number. Convergence checks
// compare vectors across replicas of a shard.
func (s *Service) VersionVector() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.vec))
	for w, q := range s.vec {
		out[w] = q
	}
	return out
}

// Fingerprint hashes the replica's resolvable view — live names with
// their types and addresses, in sorted order — so two converged replicas
// of a shard report the same value regardless of mutation arrival order.
func (s *Service) Fingerprint() uint64 {
	s.mu.Lock()
	names := make([]string, 0, len(s.entries))
	for n, rec := range s.entries {
		if !rec.Dead {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		rec := s.entries[n]
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write([]byte(rec.Entry.Type))
		h.Write([]byte{0})
		h.Write([]byte(rec.Entry.Addr.Host))
		h.Write([]byte{0})
		h.Write([]byte(strconv.FormatUint(uint64(rec.Entry.Addr.Port), 10)))
		h.Write([]byte{0})
	}
	s.mu.Unlock()
	return h.Sum64()
}
