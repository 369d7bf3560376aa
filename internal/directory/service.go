package directory

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/svc"
	"repro/internal/wire"
)

// ServiceInbox is the well-known inbox name a directory replica serves
// on; like "@session" and "@fail" it is a service inbox, invisible to
// application code.
const ServiceInbox = "@dir"

// Update describes one directory mutation, as seen by Service.OnUpdate
// observers.
type Update struct {
	// Entry is the affected entry. For a removal it is what the
	// tombstone keeps: the last value after an expiry or the replica's
	// own Remove, the name alone after a client's Remove.
	Entry Entry
	// Removed reports that the entry is no longer resolvable.
	Removed bool
	// Expired reports that the removal was driven by a failure verdict
	// (ExpireOwner) rather than an explicit Remove; expired entries keep
	// a tombstone so Reincarnate can re-register them.
	Expired bool
}

// Service is one replica of the dapplet-hosted directory: a name →
// record registry served on the hosting dapplet's "@dir" inbox (§3.1's
// "center director" directory, made a service in its own right). Every
// write is a record merged by last-writer-wins on its stamp, and every
// record that changes is pushed to watchers, which is how client caches
// learn of stale entries. A replica stores whatever names it is sent;
// shard ownership is the client-side Cluster's concern.
type Service struct {
	d *core.Dapplet

	mu       sync.Mutex
	entries  map[string]record
	watchers []wire.InboxRef
	obs      []func(Update)
	// vec is the replica's version vector: for each writer, the highest
	// write sequence number applied here. The invariant anti-entropy
	// maintains (see antientropy.go) is that vec[w] ≥ s implies no record
	// whose latest write is (w, s' ≤ s) is missing from entries — so a
	// peer's digest of its vector is enough to compute exactly the
	// records it lacks.
	vec map[string]uint64
	// selfSeq numbers this replica's own writes (handler-less API calls,
	// expiries, reincarnations), making the replica a writer like any
	// client.
	selfSeq uint64
}

// Serve hosts a directory replica on the dapplet, consuming its "@dir"
// inbox through the svc framework, and returns the service. Correlation
// and reply routing are svc's; the handlers below only merge records and
// answer with the one that governs the name.
func Serve(d *core.Dapplet) *Service {
	s := &Service{d: d, entries: make(map[string]record), vec: make(map[string]uint64)}
	svc.Serve(d, ServiceInbox, svc.Handlers{
		"dir.rec": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			gov := s.put(*req.(*record))
			return &gov, nil
		},
		"dir.lookup": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			name := req.(*lookupMsg).Name
			s.mu.Lock()
			gov, ok := s.entries[name]
			s.mu.Unlock()
			if !ok {
				gov = record{Entry: Entry{Name: name}, Dead: true}
			}
			return &gov, nil
		},
		"dir.watch": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			// The subscription is keyed on the caller's reply inbox: the
			// same address its acks and lookup replies already arrive on.
			s.addWatcher(c.ReplyTo())
			return nil, nil
		},
		"dir.unwatch": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			s.removeWatcher(req.(*unwatchMsg).ReplyTo)
			return nil, nil
		},
	})
	return s
}

// Ref returns the global address of the replica's service inbox.
func (s *Service) Ref() wire.InboxRef {
	return wire.InboxRef{Dapplet: s.d.Addr(), Inbox: ServiceInbox}
}

// Len returns the number of live (non-tombstoned) entries.
func (s *Service) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rec := range s.entries {
		if !rec.Dead {
			n++
		}
	}
	return n
}

// Entries returns the live entries, sorted by name.
func (s *Service) Entries() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, len(s.entries))
	for _, rec := range s.entries {
		if !rec.Dead {
			out = append(out, rec.Entry)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OnUpdate registers an observer for mutations. Observers run on the
// mutating thread, outside the service lock, and must not block.
func (s *Service) OnUpdate(f func(Update)) {
	s.mu.Lock()
	s.obs = append(s.obs, f)
	s.mu.Unlock()
}

// witnessLocked folds an externally stamped write into the version
// vector and the replica's clock. The vector only advances on the
// contiguous next sequence for the writer: per-writer delivery is FIFO
// but not loss-free (the transport gives up after MaxRetries during an
// outage), and jumping the vector over a lost write would vouch for a
// record this replica never saw — masking it from anti-entropy forever.
// Held back, the digest under-reports and the next pull refetches the
// gap along with everything above it, after which the peer's merged
// vector re-covers the writer. Caller holds s.mu.
func (s *Service) witnessLocked(st wstamp) {
	if st.Seq == s.vec[st.Writer]+1 {
		s.vec[st.Writer] = st.Seq
	}
	s.d.Clock().ObserveRecv(st.Lam)
}

// mergeLocked is the replica's one last-writer-wins rule: r replaces the
// name's record only if r's stamp is later, so replicas that apply the
// same records in any order settle on the same one. It returns the record
// that governs the name afterwards and whether r became it. Caller holds
// s.mu, and notifies a change once it has let go.
func (s *Service) mergeLocked(r record) (record, bool) {
	if cur, ok := s.entries[r.Entry.Name]; ok && !cur.Stamp.less(r.Stamp) {
		return cur, false
	}
	s.entries[r.Entry.Name] = r
	return r, true
}

// put applies a record written elsewhere — a client's register or
// remove, or a peer's anti-entropy delta — and returns the record that
// governs the name here afterwards. A write that lost is still
// witnessed: it advances the version vector and the clock. A stamped
// remove of an unknown name still lays down a tombstone: the register it
// raced may reach this replica — or another — afterwards, and only a
// stamped tombstone orders the two the same way everywhere.
func (s *Service) put(r record) record {
	s.mu.Lock()
	s.witnessLocked(r.Stamp)
	gov, changed := s.mergeLocked(r)
	s.mu.Unlock()
	if changed {
		s.notify(gov)
	}
	return gov
}

// local applies a write this replica originates. edit turns the name's
// record (a bare tombstone for an unknown name) into the one to write,
// or reports false to leave it be. The write is stamped in the replica's
// own name: the clock tick makes it causally later than everything the
// replica has witnessed, so it always wins the merge.
func (s *Service) local(name string, edit func(r *record) bool) bool {
	s.mu.Lock()
	r, ok := s.entries[name]
	if !ok {
		r = record{Entry: Entry{Name: name}, Dead: true}
	}
	if !edit(&r) {
		s.mu.Unlock()
		return false
	}
	s.selfSeq++
	r.Stamp = wstamp{Lam: s.d.Clock().Tick(), Writer: s.d.Name(), Seq: s.selfSeq}
	s.vec[r.Stamp.Writer] = r.Stamp.Seq
	s.mergeLocked(r)
	s.mu.Unlock()
	s.notify(r)
	return true
}

// Register adds or replaces an entry. Registering over a tombstone
// revives the name.
func (s *Service) Register(e Entry) {
	s.local(e.Name, func(r *record) bool {
		*r = record{Entry: e}
		return true
	})
}

// Remove tombstones an entry by name, reporting whether the name was
// live. Removing an unknown or dead name is a no-op.
func (s *Service) Remove(name string) bool {
	return s.local(name, func(r *record) bool {
		if r.Dead {
			return false
		}
		r.Dead, r.Expired = true, false
		return true
	})
}

// Lookup resolves a live entry.
func (s *Service) Lookup(name string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.entries[name]
	return r.Entry, ok && !r.Dead
}

// ExpireOwner tombstones the named dapplet's entry after a failure
// detector's Down verdict: the entry stops resolving without any manual
// Remove, but its type and last address are retained so Reincarnate can
// revive it. Expiring an unknown or dead name is a no-op.
func (s *Service) ExpireOwner(name string) bool {
	return s.local(name, func(r *record) bool {
		if r.Dead {
			return false
		}
		r.Dead, r.Expired = true, true
		return true
	})
}

// Reincarnate revives an expired entry at the restarted dapplet's new
// address, keeping the tombstone's recorded type. It is a no-op for
// names that were never registered or were removed explicitly.
func (s *Service) Reincarnate(name string, addr netsim.Addr) bool {
	return s.local(name, func(r *record) bool {
		if r.Dead && !r.Expired {
			return false
		}
		if !r.Dead && r.Entry.Addr == addr {
			return false // already current
		}
		r.Entry.Addr, r.Dead, r.Expired = addr, false, false
		return true
	})
}

// notify delivers one changed record to observers and, as an event, to
// watchers. Caller must not hold s.mu.
func (s *Service) notify(r record) {
	s.mu.Lock()
	watchers := append([]wire.InboxRef(nil), s.watchers...)
	obs := s.obs
	s.mu.Unlock()
	up := Update{Entry: r.Entry, Removed: r.Dead, Expired: r.Expired}
	for _, f := range obs {
		f(up)
	}
	for _, w := range watchers {
		_ = s.d.SendDirect(w, "", &r)
	}
}

// addWatcher subscribes an inbox to record events (idempotent). The
// watcher list is unbounded: a watcher stays subscribed until
// removeWatcher, so a client that crashes without unwatching keeps
// costing one undeliverable event send per change. Bounding it is part
// of the bounded-queues work (ROADMAP item 9(a)).
func (s *Service) addWatcher(ref wire.InboxRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.watchers {
		if w == ref {
			return
		}
	}
	s.watchers = append(s.watchers, ref)
}

// removeWatcher drops an event subscription.
func (s *Service) removeWatcher(ref wire.InboxRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, w := range s.watchers {
		if w == ref {
			s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
			return
		}
	}
}
