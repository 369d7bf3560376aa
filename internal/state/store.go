// Package state implements persistent dapplet state with per-session
// access control and interference scheduling (§2.2 "Persistent State
// Across Multiple Temporary Sessions").
//
// A dapplet's state is a set of named variables that outlives any single
// session ("an appointments calendar that disappears when an appointment
// is made has no value"). Each session declares the variables it reads and
// writes; the store's lock table ensures that "two sessions must not be
// allowed to proceed concurrently if one modifies variables accessed by
// the other", while sessions touching disjoint state run concurrently.
package state

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrDenied is returned when a session accesses a variable outside its
// declared access set.
var ErrDenied = errors.New("state: access outside the session's declared access set")

// ErrConflict is returned by TryAcquire when the requested access set
// interferes with a live session.
var ErrConflict = errors.New("state: session interferes with a live session")

// ErrClosed is returned by blocking operations on a closed store.
var ErrClosed = errors.New("state: store closed")

// ErrAlreadyLive is returned by TryAcquire and Acquire when the session
// id already holds access. A recovering dapplet whose store survived a
// crash sees this when it re-registers a session it never released;
// callers restoring membership treat it as success.
var ErrAlreadyLive = errors.New("state: session already live")

// AccessSet declares the portions of a dapplet's state a session may
// touch: "a distributed session to set up an executive committee meeting
// may have access to Mondays and Fridays on one user's calendar but not to
// other days" (§2.2).
type AccessSet struct {
	Read  []string `json:"r,omitempty"`
	Write []string `json:"w,omitempty"`
}

// Touches reports whether the set mentions the variable at all.
func (a AccessSet) Touches(name string) bool {
	return contains(a.Read, name) || contains(a.Write, name)
}

// Writes reports whether the set allows writing the variable.
func (a AccessSet) Writes(name string) bool { return contains(a.Write, name) }

// Interferes implements the paper's condition: two sessions interfere when
// one modifies variables accessed by the other.
func (a AccessSet) Interferes(b AccessSet) bool {
	for _, w := range a.Write {
		if b.Touches(w) {
			return true
		}
	}
	for _, w := range b.Write {
		if a.Touches(w) {
			return true
		}
	}
	return false
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Store is a persistent set of named variables plus the session lock
// table. All methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	cond   *sync.Cond
	vars   map[string]json.RawMessage
	live   map[string]AccessSet // session id -> its access set
	closed bool
}

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{
		vars: make(map[string]json.RawMessage),
		live: make(map[string]AccessSet),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Set stores a variable, JSON-encoding the value.
func (s *Store) Set(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("state: encode %s: %w", name, err)
	}
	s.mu.Lock()
	s.vars[name] = data
	s.mu.Unlock()
	return nil
}

// Get loads a variable into out, reporting whether it exists.
func (s *Store) Get(name string, out any) (bool, error) {
	s.mu.Lock()
	data, ok := s.vars[name]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if out == nil {
		return true, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return true, fmt.Errorf("state: decode %s: %w", name, err)
	}
	return true, nil
}

// Delete removes a variable.
func (s *Store) Delete(name string) {
	s.mu.Lock()
	delete(s.vars, name)
	s.mu.Unlock()
}

// Names returns all variable names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.vars))
	for k := range s.vars {
		out = append(out, k)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Close wakes any sessions blocked in Acquire; they fail with ErrClosed.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Reopen makes a closed store usable again. Variables and live session
// access survive Close, so a store models a dapplet's disk: a crashed
// dapplet's runtime closes the store with the dapplet, and the restarted
// incarnation reopens it to find its state — and any session access it
// held at the crash — intact.
func (s *Store) Reopen() {
	s.mu.Lock()
	s.closed = false
	s.mu.Unlock()
}

// interferesLocked reports whether acc conflicts with any live session.
func (s *Store) interferesLocked(acc AccessSet) (string, bool) {
	for id, live := range s.live {
		if acc.Interferes(live) {
			return id, true
		}
	}
	return "", false
}

// TryAcquire registers a session's access set if it does not interfere
// with any live session; otherwise it returns ErrConflict naming the
// interfering session. A dapplet uses this to decide whether to reject a
// session invitation "because it is already participating in a session and
// another concurrent session would cause interference" (§3.1).
func (s *Store) TryAcquire(sessionID string, acc AccessSet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.live[sessionID]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyLive, sessionID)
	}
	if other, bad := s.interferesLocked(acc); bad {
		return fmt.Errorf("%w: %q conflicts with live session %q", ErrConflict, sessionID, other)
	}
	s.live[sessionID] = acc
	return nil
}

// Acquire blocks until the access set can be registered without
// interference, implementing the alternative scheduling policy: conflicting
// sessions are serialized rather than rejected.
func (s *Store) Acquire(sessionID string, acc AccessSet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return ErrClosed
		}
		if _, ok := s.live[sessionID]; ok {
			return fmt.Errorf("%w: %q", ErrAlreadyLive, sessionID)
		}
		if _, bad := s.interferesLocked(acc); !bad {
			s.live[sessionID] = acc
			return nil
		}
		s.cond.Wait()
	}
}

// Release ends a session's access, unblocking waiters.
func (s *Store) Release(sessionID string) {
	s.mu.Lock()
	delete(s.live, sessionID)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// LiveSessions returns the ids of sessions currently holding access.
func (s *Store) LiveSessions() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.live))
	for id := range s.live {
		out = append(out, id)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// View returns a session-scoped view of the store that enforces the
// session's declared access set. The session must be live.
func (s *Store) View(sessionID string) (*View, error) {
	s.mu.Lock()
	acc, ok := s.live[sessionID]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("state: session %q is not live", sessionID)
	}
	return &View{store: s, session: sessionID, acc: acc}, nil
}

// View is a session's restricted window onto a store: "each session ...
// only has access to portions of the state relevant to that session"
// (§2.2).
type View struct {
	store   *Store
	session string
	acc     AccessSet
}

// Get reads a variable the session declared (read or write access).
func (v *View) Get(name string, out any) (bool, error) {
	if !v.acc.Touches(name) {
		return false, fmt.Errorf("%w: session %q reading %q", ErrDenied, v.session, name)
	}
	return v.store.Get(name, out)
}

// Set writes a variable the session declared write access to.
func (v *View) Set(name string, val any) error {
	if !v.acc.Writes(name) {
		return fmt.Errorf("%w: session %q writing %q", ErrDenied, v.session, name)
	}
	return v.store.Set(name, val)
}
