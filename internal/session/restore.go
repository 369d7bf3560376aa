package session

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/state"
)

// persistPrefix prefixes the store variable holding a session's durable
// membership record. The '@' marks it as service state, like the "@snap"
// checkpoint variable.
const persistPrefix = "@session:"

// persist writes the membership's durable record, written at accept and
// every relink: the membership's current state as the invitation that
// would link a fresh incarnation up the same way (RestoreSessions re-runs
// the accept path on it). On a tree session its roster is the view, so
// the record is O(k) like the invite. Callers must not hold mem.mu (the
// method takes it).
func (s *Service) persist(mem *Membership) {
	var buf [512]byte
	mem.mu.Lock()
	rec := inviteMsg{
		SessionID: mem.ID,
		Task:      mem.Task,
		Role:      mem.Role,
		Access:    mem.access,
		Bindings:  mem.bindings,
		Inboxes:   mem.inboxes,
		Roster:    mem.Roster,
		Size:      mem.Size,
		Tree:      mem.tree,
		Depth:     mem.depth,
		Epoch:     mem.epoch,
	}
	data, _ := rec.AppendBinary(buf[:0]) // its error is always nil
	mem.mu.Unlock()
	s.d.Store().Set(persistPrefix+mem.ID, data)
}

// unpersist removes a session's durable record at terminate/shrink.
func (s *Service) unpersist(id string) {
	s.d.Store().Delete(persistPrefix + id)
}

// RestoreSessions rebuilds this dapplet's session memberships from the
// durable records in its store: for each it re-registers the session's
// state access (tolerating access the store still holds from before the
// crash) and re-runs the accept path on the record — session inboxes,
// outbox bindings and the tree bound to the neighbours the last
// incarnation had; behaviours re-learn their peers from Membership.
// It returns the restored session ids, sorted (Store.Names is).
//
// Call it after core.Runtime.Restart, before the initiator relinks
// surviving peers to the new incarnation (Handle.Reincarnate). Restoring
// is idempotent: sessions this service already considers live are
// skipped.
func (s *Service) RestoreSessions() ([]string, error) {
	var restored []string
	for _, name := range s.d.Store().Names() {
		id, ok := strings.CutPrefix(name, persistPrefix)
		if !ok {
			continue
		}
		s.mu.Lock()
		_, already := s.members[id]
		s.mu.Unlock()
		data, ok := s.d.Store().Get(name)
		if already || !ok {
			continue
		}
		var rec inviteMsg
		if err := rec.UnmarshalBinary(data); err != nil {
			return restored, fmt.Errorf("session: restore %s: %w", id, err)
		}
		if err := s.d.Store().TryAcquire(id, rec.Access); err != nil && !errors.Is(err, state.ErrAlreadyLive) {
			return restored, fmt.Errorf("session: restore %s: %w", id, err)
		}
		// Not from the start: the initiator's repair relink tells the
		// neighbours this incarnation's address.
		s.link(&rec, false)
		restored = append(restored, id)
	}
	return restored, nil
}

// MarkPeerDown records a failure-detector Down verdict: every membership
// whose roster names the peer treats it as dead until MarkPeerUp.
// Detector wiring lives in internal/failure (BindSession).
func (s *Service) MarkPeerDown(name string) { s.setPeerDown(name, true) }

// MarkPeerUp clears a Down verdict, typically when the peer's restarted
// incarnation is heard from again.
func (s *Service) MarkPeerUp(name string) { s.setPeerDown(name, false) }

func (s *Service) setPeerDown(name string, down bool) {
	s.mu.Lock()
	mems := make([]*Membership, 0, len(s.members))
	for _, m := range s.members {
		mems = append(mems, m)
	}
	s.mu.Unlock()
	for _, m := range mems {
		m.mu.Lock()
		named := false
		for _, p := range m.Roster {
			if p.Name == name {
				named = true
				break
			}
		}
		if named {
			if m.down == nil {
				m.down = make(map[string]bool)
			}
			if down {
				m.down[name] = true
			} else {
				delete(m.down, name)
			}
		}
		m.mu.Unlock()
	}
}
