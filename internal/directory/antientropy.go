package directory

import (
	"context"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"repro/internal/svc"
	"repro/internal/wire"
)

// Anti-entropy: replicas of a shard periodically reconcile, each pulling
// one random sibling a round (Reconcile), so a replica that was down
// through a churn phase converges to the live view without anyone
// replaying missed fan-outs. A pull is one svc call on "@dir": the
// puller's digest (dir.digest) is answered with the records it is
// missing (dir.delta).
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
// for the receiver to merge after applying them; it is empty, vector
// included, when the digest already covers the sender.
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
// for its writer. The delta is empty when the peer already covers local
// state.
func (s *Service) deltaFor(pd *dirDigestMsg) *dirDeltaMsg {
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
		return &dirDeltaMsg{}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Entry.Name < recs[j].Entry.Name })
	return &dirDeltaMsg{Recs: recs, Writers: writers, Seqs: seqs}
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

// ReplicaStats counts a replica's anti-entropy activity.
type ReplicaStats struct {
	// Rounds is the number of reconcile rounds run.
	Rounds uint64
	// Pulls is the number of digests sent to a sibling.
	Pulls uint64
	// Deltas is the number of non-empty deltas applied.
	Deltas uint64
}

// Stats returns a snapshot of the replica's anti-entropy counters.
func (s *Service) Stats() ReplicaStats {
	return ReplicaStats{Rounds: s.rounds.Load(), Pulls: s.pulls.Load(), Deltas: s.deltas.Load()}
}

// Reconcile starts the replica's anti-entropy loop: once every period it
// pulls one random sibling, sending its digest to the sibling's "@dir"
// inbox and applying the delta that comes back. siblings are the "@dir"
// refs of its shard's replicas; its own is skipped. The loop stops with
// the dapplet. Call it at most once.
func (s *Service) Reconcile(siblings []wire.InboxRef, every time.Duration) {
	self := s.d.Addr()
	var sibs []wire.InboxRef
	for _, r := range siblings {
		if r.Dapplet != self {
			sibs = append(sibs, r)
		}
	}
	s.mu.Lock()
	s.siblings = sibs
	s.mu.Unlock()
	caller := svc.NewCaller(s.d)
	h := fnv.New64a()
	h.Write([]byte(s.d.Name()))
	rng := rand.New(rand.NewPCG(h.Sum64(), 0))
	s.d.Spawn(func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.d.Stopped():
				return
			case <-t.C:
			}
			s.rounds.Add(1)
			if len(sibs) > 0 {
				s.pull(caller, sibs[rng.IntN(len(sibs))], 8*every)
			}
		}
	})
}

// Siblings returns the shard siblings Reconcile was given, without this
// replica's own ref.
func (s *Service) Siblings() []wire.InboxRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.siblings
}

// pull performs one digest/delta exchange with a sibling. The deadline is
// generous: under load a delta that arrives late is still worth applying
// (one applied delta is a full catch-up), and a pull in flight holds up
// only this replica's own loop.
func (s *Service) pull(caller *svc.Caller, sib wire.InboxRef, within time.Duration) {
	s.pulls.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), within) //wwlint:allow ctxcheck replica reconcile-loop pull with no caller; bounded by 8 periods
	defer cancel()
	var rep dirDeltaMsg
	if caller.Call(ctx, sib, s.digest(), &rep) != nil || len(rep.Recs) == 0 {
		return
	}
	s.applyDelta(&rep)
	s.deltas.Add(1)
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
