package session

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/state"
)

// persistPrefix prefixes the store variable holding a session's durable
// membership record. The '@' marks it as service state, like the "@snap"
// checkpoint variable.
const persistPrefix = "@session:"

// persistedMembership is the durable form of one membership, written to
// the dapplet's store at accept and every relink. It is everything a
// fresh incarnation needs to stand the membership back up: the wiring
// (bindings, inboxes), the roster as Membership.Roster holds it — on a
// tree session the view, whose neighbours the relay rebinds to — and the
// state access to re-register. Its size follows what the participant
// was shipped: O(k) on a tree session.
type persistedMembership struct {
	Task     string          `json:"task,omitempty"`
	Role     string          `json:"role"`
	Access   state.AccessSet `json:"acc"`
	Roster   []Participant   `json:"roster"`
	Size     int             `json:"n"`
	Bindings []Binding       `json:"b,omitempty"`
	Inboxes  []string        `json:"in,omitempty"`
	Tree     *TreeSpec       `json:"tree,omitempty"`
	Depth    int             `json:"d,omitempty"`
	Epoch    uint64          `json:"e,omitempty"`
}

// persist writes the membership's durable record. Callers must not hold
// mem.mu (the method takes it).
func (s *Service) persist(mem *Membership) {
	mem.mu.Lock()
	rec := persistedMembership{
		Task:     mem.Task,
		Role:     mem.Role,
		Access:   mem.access,
		Roster:   append([]Participant(nil), mem.Roster...),
		Size:     mem.Size,
		Bindings: append([]Binding(nil), mem.bindings...),
		Inboxes:  append([]string(nil), mem.inboxes...),
		Tree:     mem.tree,
		Depth:    mem.depth,
		Epoch:    mem.epoch,
	}
	id := mem.ID
	mem.mu.Unlock()
	_ = s.d.Store().Set(persistPrefix+id, rec)
}

// unpersist removes a session's durable record at terminate/shrink.
func (s *Service) unpersist(id string) {
	s.d.Store().Delete(persistPrefix + id)
}

// RestoreSessions rebuilds this dapplet's session memberships from the
// durable records in its store: it recreates the session inboxes,
// re-binds the outbox channels, re-registers the sessions' state access
// (tolerating access the store still holds from before the crash), and
// runs the OnJoin policy hook for each restored membership, so behaviours
// re-learn their peers. It returns the restored session ids, sorted.
//
// Call it after core.Runtime.Restart, before the initiator relinks
// surviving peers to the new incarnation (Handle.Reincarnate). Restoring
// is idempotent: sessions this service already considers live are
// skipped.
func (s *Service) RestoreSessions() ([]string, error) {
	var restored []string
	for _, name := range s.d.Store().Names() {
		if !strings.HasPrefix(name, persistPrefix) {
			continue
		}
		id := strings.TrimPrefix(name, persistPrefix)
		s.mu.Lock()
		_, already := s.members[id]
		s.mu.Unlock()
		if already {
			continue
		}
		var rec persistedMembership
		if ok, err := s.d.Store().Get(name, &rec); err != nil || !ok {
			if err != nil {
				return restored, fmt.Errorf("session: restore %s: %w", id, err)
			}
			continue
		}
		if err := s.d.Store().TryAcquire(id, rec.Access); err != nil && !errors.Is(err, state.ErrAlreadyLive) {
			return restored, fmt.Errorf("session: restore %s: %w", id, err)
		}
		for _, in := range rec.Inboxes {
			s.d.Inbox(in)
		}
		for _, b := range rec.Bindings {
			ob := s.d.Outbox(b.Outbox)
			ob.SetSession(id)
			ob.Add(b.To)
		}
		if rec.Tree != nil {
			// The persisted view rebinds this incarnation to the
			// neighbours the last one had; the initiator's repair relink
			// then tells those neighbours our new address.
			s.bindTree(id, rec.Tree, rec.Roster, rec.Depth, rec.Epoch, false)
		}
		mem := &Membership{
			ID:       id,
			Task:     rec.Task,
			Role:     rec.Role,
			Roster:   rec.Roster,
			Size:     rec.Size,
			access:   rec.Access,
			inboxes:  rec.Inboxes,
			bindings: append([]Binding(nil), rec.Bindings...),
			tree:     rec.Tree,
			depth:    rec.Depth,
			epoch:    rec.Epoch,
		}
		s.mu.Lock()
		s.members[id] = mem
		s.mu.Unlock()
		restored = append(restored, id)
		if s.policy.OnJoin != nil {
			s.policy.OnJoin(mem)
		}
	}
	sort.Strings(restored)
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
