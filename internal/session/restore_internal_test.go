package session

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wire"
)

// linkedState is everything a membership holds that the accept path and
// relinks set, plus the refs its outboxes are bound to.
type linkedState struct {
	Task, Role string
	Roster     []Participant
	Size       int
	Bindings   []Binding
	Inboxes    []string
	Tree       *TreeSpec
	Depth      int
	Epoch      uint64
	Access     state.AccessSet
	Dests      map[string][]wire.InboxRef // by bound outbox
}

func linkedStateOf(t *testing.T, s *Service, sid string) linkedState {
	t.Helper()
	m, ok := s.Membership(sid)
	if !ok {
		t.Fatalf("%s is not linked into %s", s.d.Name(), sid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := linkedState{
		Task: m.Task, Role: m.Role, Roster: m.Roster, Size: m.Size,
		Bindings: m.bindings, Inboxes: m.inboxes, Tree: m.tree,
		Depth: m.depth, Epoch: m.epoch, Access: m.access,
		Dests: make(map[string][]wire.InboxRef),
	}
	for _, b := range m.bindings {
		ls.Dests[b.Outbox] = s.d.Outbox(b.Outbox).Destinations()
	}
	return ls
}

// TestRestoreEqualsAccept crashes and restarts a member, of a flat
// session and of a tree session after a relink (a Grow that binds one
// more of its outbox's channels at epoch 2), and checks RestoreSessions
// stands the membership back up as the accept path and the relink left
// it: roster, size, bindings, inboxes, tree, depth, epoch and access,
// and each outbox bound to the same refs.
func TestRestoreEqualsAccept(t *testing.T) {
	for _, tree := range []bool{false, true} {
		t.Run(fmt.Sprintf("tree=%v", tree), func(t *testing.T) {
			w := newWorld(t)
			var mu sync.Mutex
			services := make(map[string]*Service)
			serviceOf := func(name string) *Service {
				mu.Lock()
				defer mu.Unlock()
				return services[name]
			}
			w.RT.Registry().Register("member", core.Factory(func() core.Behavior {
				return core.BehaviorFunc(func(d *core.Dapplet) error {
					svc := Attach(d, Policy{})
					if _, err := svc.RestoreSessions(); err != nil {
						return err
					}
					mu.Lock()
					services[d.Name()] = svc
					mu.Unlock()
					return nil
				})
			}))
			ctx := context.Background()
			names := []string{"m0", "m1", "m2", "m3", "m4"}
			for i, n := range names {
				if _, err := w.Launch(ctx, fmt.Sprintf("h%d", i), "member", n); err != nil {
					t.Fatal(err)
				}
			}
			const sid, crasher = "restore", "m1"
			spec := Spec{ID: sid, Task: "restore equals accept", Links: []Link{
				{From: "m1", Outbox: "up", To: "m0", Inbox: "in"},
				{From: "m0", Outbox: "down", To: "m1", Inbox: "in"},
				{From: "m2", Outbox: "side", To: "m1", Inbox: "side"},
			}}
			for _, n := range names[:4] {
				spec.Participants = append(spec.Participants, Participant{Name: n, Role: "member", Access: accessSet(n + ".cal")})
			}
			if tree {
				spec.Tree = &TreeSpec{Outbox: "bcast", Inbox: "news", Fanout: 2}
			}
			h, err := NewInitiator(w.Dapplet("hq", "initiator", "director"), w.Dir).Initiate(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if tree {
				if err := h.Grow(ctx, Participant{Name: "m4", Role: "member"}, []Link{{From: "m1", Outbox: "up", To: "m4", Inbox: "in"}}); err != nil {
					t.Fatal(err)
				}
			}
			before := linkedStateOf(t, serviceOf(crasher), sid)
			if tree && (before.Epoch != 2 || len(before.Dests["up"]) != 2) {
				t.Fatalf("the relink did not land: epoch %d, up bound to %v", before.Epoch, before.Dests["up"])
			}

			if err := w.RT.Crash(crasher); err != nil {
				t.Fatal(err)
			}
			if _, err := w.RT.Restart(crasher); err != nil {
				t.Fatal(err)
			}
			after := linkedStateOf(t, serviceOf(crasher), sid)
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("restored membership differs from the one the crash lost:\nrestored %+v\n    lost %+v", after, before)
			}
			if got := serviceOf(crasher).d.Store().LiveSessions(); len(got) != 1 || got[0] != sid {
				t.Fatalf("restored state access = %v, want [%s]", got, sid)
			}
			if tree && !serviceOf(crasher).Relay().Bound(sid) {
				t.Fatal("restore did not rebind the tree")
			}
		})
	}
}
