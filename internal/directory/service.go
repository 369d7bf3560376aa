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
	// Entry is the affected entry (its last known value for removals).
	Entry Entry
	// Version is the replica's version counter after the mutation.
	Version uint64
	// Removed reports that the entry is no longer resolvable.
	Removed bool
	// Expired reports that the removal was driven by a failure verdict
	// (ExpireOwner) rather than an explicit Remove; expired entries keep
	// a tombstone so Reincarnate can re-register them.
	Expired bool
}

// wstamp orders one mutation across replicas: lam is the writer's
// Lamport time when it issued the write, writer its endpoint identity,
// seq its per-writer mutation sequence number. The triple totally orders
// all writes — lam first (causally later writes carry larger times, since
// every message merges clocks), then writer and seq as tie-breaks — which
// is what lets two replicas that applied the same writes in different
// orders settle on the same record (last-writer-wins).
type wstamp struct {
	lam    uint64
	writer string
	seq    uint64
}

// isZero reports an absent stamp (a process-local mutation that the
// replica stamps itself).
func (st wstamp) isZero() bool { return st.writer == "" }

// less reports whether st orders strictly before o.
func (st wstamp) less(o wstamp) bool {
	if st.lam != o.lam {
		return st.lam < o.lam
	}
	if st.writer != o.writer {
		return st.writer < o.writer
	}
	return st.seq < o.seq
}

// record is one name's slot in a replica, alive or tombstoned. Tombstones
// retain the last entry (type, address) so a failure-driven expiry can be
// undone by Reincarnate when the dapplet is heard from again. The stamp
// of the write that produced the current state rides along for
// anti-entropy reconciliation.
type record struct {
	entry   Entry
	version uint64
	dead    bool
	expired bool // dead via ExpireOwner, not Remove
	stamp   wstamp
}

// Service is one replica of the dapplet-hosted directory: a versioned
// name → address registry served on the hosting dapplet's "@dir" inbox
// (§3.1's "center director" directory, made a service in its own right).
// Every mutation bumps the replica's version counter and is pushed to
// watchers, which is how client caches learn of stale entries. A replica
// stores whatever names it is sent; shard ownership is the client-side
// Cluster's concern.
type Service struct {
	d *core.Dapplet

	mu       sync.Mutex
	version  uint64
	entries  map[string]*record
	watchers []wire.InboxRef
	obs      []func(Update)
	// vec is the replica's version vector: for each writer, the highest
	// mutation sequence number applied here. The invariant anti-entropy
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
// and reply routing are svc's; the handlers below only apply directory
// mutations and shape their payloads.
func Serve(d *core.Dapplet) *Service {
	s := &Service{d: d, entries: make(map[string]*record), vec: make(map[string]uint64)}
	svc.Serve(d, ServiceInbox, svc.Handlers{
		"dir.reg": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			m := req.(*registerMsg)
			v := s.register(Entry{Name: m.Name, Type: m.Typ, Addr: m.Addr},
				wstamp{lam: m.Lam, writer: m.Writer, seq: m.Seq})
			return &ackMsg{Version: v, OK: true}, nil
		},
		"dir.rm": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			m := req.(*removeMsg)
			v, ok := s.remove(m.Name, wstamp{lam: m.Lam, writer: m.Writer, seq: m.Seq})
			return &ackMsg{Version: v, OK: ok}, nil
		},
		"dir.lookup": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			m := req.(*lookupMsg)
			e, v, ok := s.Lookup(m.Name)
			rep := &lookupRepMsg{Name: m.Name, Version: v, Found: ok}
			if ok {
				rep.Typ, rep.Addr = e.Type, e.Addr
			}
			return rep, nil
		},
		"dir.watch": func(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
			// The subscription is keyed on the caller's reply inbox: the
			// same address its acks and lookup replies already arrive on.
			s.addWatcher(c.ReplyTo())
			return &ackMsg{Version: s.Version(), OK: true}, nil
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

// Version returns the replica's current version counter.
func (s *Service) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Len returns the number of live (non-tombstoned) entries.
func (s *Service) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rec := range s.entries {
		if !rec.dead {
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
		if !rec.dead {
			out = append(out, rec.entry)
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

// selfStampLocked issues a fresh write stamp in this replica's own name:
// the clock tick makes it causally later than everything the replica has
// witnessed, so a local write always wins last-writer-wins against the
// state it observed. Caller holds s.mu.
func (s *Service) selfStampLocked() wstamp {
	s.selfSeq++
	st := wstamp{lam: s.d.Clock().Tick(), writer: s.d.Name(), seq: s.selfSeq}
	s.vec[st.writer] = st.seq
	return st
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
	if st.seq == s.vec[st.writer]+1 {
		s.vec[st.writer] = st.seq
	}
	s.d.Clock().ObserveRecv(st.lam)
}

// Register adds or replaces an entry, returning the replica version after
// the mutation. Registering over a tombstone revives the name.
func (s *Service) Register(e Entry) uint64 { return s.register(e, wstamp{}) }

// register applies one registration under the given write stamp (zero for
// a process-local write, which is stamped here). A record carrying a
// later stamp than the write is left untouched — the write already lost
// last-writer-wins, on this replica and deterministically on every other.
func (s *Service) register(e Entry, st wstamp) uint64 {
	s.mu.Lock()
	if st.isZero() {
		st = s.selfStampLocked()
	} else {
		s.witnessLocked(st)
	}
	if rec, ok := s.entries[e.Name]; ok && !rec.stamp.less(st) {
		v := s.version
		s.mu.Unlock()
		return v
	}
	s.version++
	s.entries[e.Name] = &record{entry: e, version: s.version, stamp: st}
	up := Update{Entry: e, Version: s.version}
	s.mu.Unlock()
	s.notify(up)
	return up.Version
}

// Remove deletes an entry by name, returning the replica version and
// whether the name was live. Removing an unknown or dead name is a no-op.
func (s *Service) Remove(name string) (uint64, bool) { return s.remove(name, wstamp{}) }

// remove applies one removal under the given write stamp (zero for a
// process-local remove). A stamped remove of an unknown name still lays
// down a tombstone: the register it raced may reach this replica — or
// another — afterwards, and only a stamped tombstone orders the two the
// same way everywhere.
func (s *Service) remove(name string, st wstamp) (uint64, bool) {
	s.mu.Lock()
	external := !st.isZero()
	if external {
		s.witnessLocked(st)
	}
	rec, ok := s.entries[name]
	if ok && external && !rec.stamp.less(st) {
		v := s.version
		s.mu.Unlock()
		return v, false
	}
	if !ok {
		v := s.version
		if external {
			s.entries[name] = &record{entry: Entry{Name: name}, version: v, dead: true, stamp: st}
		}
		s.mu.Unlock()
		return v, false
	}
	if rec.dead {
		if external {
			// Already dead, but the newer stamp must govern the tombstone
			// or a concurrent register with an in-between stamp would
			// revive the name here and not elsewhere.
			rec.stamp = st
			rec.expired = false
		}
		v := s.version
		s.mu.Unlock()
		return v, false
	}
	if !external {
		st = s.selfStampLocked()
	}
	s.version++
	rec.dead = true
	rec.expired = false
	rec.version = s.version
	rec.stamp = st
	up := Update{Entry: rec.entry, Version: s.version, Removed: true}
	s.mu.Unlock()
	s.notify(up)
	return up.Version, true
}

// Lookup resolves a live entry and the version that stamped it.
func (s *Service) Lookup(name string) (Entry, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.entries[name]
	if !ok || rec.dead {
		return Entry{}, s.version, false
	}
	return rec.entry, rec.version, true
}

// ExpireOwner tombstones the named dapplet's entry after a failure
// detector's Down verdict: the entry stops resolving without any manual
// Remove, but its type and last address are retained so Reincarnate can
// revive it. Expiring an unknown or dead name is a no-op.
func (s *Service) ExpireOwner(name string) bool {
	s.mu.Lock()
	rec, ok := s.entries[name]
	if !ok || rec.dead {
		s.mu.Unlock()
		return false
	}
	s.version++
	rec.dead = true
	rec.expired = true
	rec.version = s.version
	rec.stamp = s.selfStampLocked()
	up := Update{Entry: rec.entry, Version: s.version, Removed: true, Expired: true}
	s.mu.Unlock()
	s.notify(up)
	return true
}

// Reincarnate revives an expired entry at the restarted dapplet's new
// address, keeping the tombstone's recorded type. It is a no-op for
// names that were never registered or were removed explicitly.
func (s *Service) Reincarnate(name string, addr netsim.Addr) bool {
	s.mu.Lock()
	rec, ok := s.entries[name]
	if !ok || (rec.dead && !rec.expired) {
		s.mu.Unlock()
		return false
	}
	if !rec.dead && rec.entry.Addr == addr {
		s.mu.Unlock()
		return false // already current
	}
	s.version++
	rec.entry.Addr = addr
	rec.dead = false
	rec.expired = false
	rec.version = s.version
	rec.stamp = s.selfStampLocked()
	up := Update{Entry: rec.entry, Version: s.version}
	s.mu.Unlock()
	s.notify(up)
	return true
}

// notify delivers one mutation to watchers and observers. Caller must not
// hold s.mu.
func (s *Service) notify(up Update) {
	s.mu.Lock()
	watchers := append([]wire.InboxRef(nil), s.watchers...)
	obs := s.obs
	s.mu.Unlock()
	for _, f := range obs {
		f(up)
	}
	if len(watchers) == 0 {
		return
	}
	ev := &eventMsg{
		Name:    up.Entry.Name,
		Typ:     up.Entry.Type,
		Addr:    up.Entry.Addr,
		Version: up.Version,
		Removed: up.Removed,
	}
	for _, w := range watchers {
		_ = s.d.SendDirect(w, "", ev)
	}
}

// addWatcher subscribes an inbox to mutation events (idempotent). A
// watcher stays subscribed until removeWatcher: a client that crashes
// without unwatching keeps costing one (undeliverable) event send per
// mutation until then — reconciling watcher liveness is part of the
// directory anti-entropy item in ROADMAP.md.
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
