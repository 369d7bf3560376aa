package session_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/relay"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/world"
)

// layoutOver lays the fanout-k tree over a roster in the given order.
func layoutOver(order []session.Participant, k int) *relay.Tree {
	members := make([]relay.Member, len(order))
	for i, p := range order {
		members[i] = relay.Member{Name: p.Name, Addr: p.Addr}
	}
	return relay.NewTree(members, k)
}

// checkLayout is the layout oracle: order is the roster order the
// initiator laid the tree over, and every member in it must hold exactly
// the neighbours and hop budget relay.NewTree(order, k) gives it, with a
// Membership.Roster that is its view (itself, then those neighbours) and
// a Size that is the whole group's.
func checkLayout(t *testing.T, step, sid string, order []session.Participant, k int, svcOf func(string) *session.Service) {
	t.Helper()
	oracle := layoutOver(order, k)
	wantTTL := uint32(2*oracle.Depth() + 4)
	for _, p := range order {
		want := oracle.Neighbors(p.Name)
		got, ttl := svcOf(p.Name).Relay().Neighbors(sid)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s relays to %v, the tree over the initiator's roster says %v", step, p.Name, got, want)
		}
		if ttl != wantTTL {
			t.Fatalf("%s: %s stamps TTL %d, want %d (depth %d)", step, p.Name, ttl, wantTTL, oracle.Depth())
		}
		mem, ok := svcOf(p.Name).Membership(sid)
		if !ok {
			t.Fatalf("%s: %s has no membership", step, p.Name)
		}
		view := mem.Roster
		if mem.Size != len(order) || len(view) != len(want)+1 || view[0].Name != p.Name {
			t.Fatalf("%s: %s holds size %d and view %v, want size %d and itself plus %d neighbours",
				step, p.Name, mem.Size, view, len(order), len(want))
		}
		for i, n := range want {
			if view[i+1].Name != n.Name || view[i+1].Addr != n.Addr {
				t.Fatalf("%s: %s view entry %d is %v, want %v", step, p.Name, i+1, view[i+1], n)
			}
		}
	}
}

// TestTreeViewsMatchLayoutOracle drives a 40-member tree session through
// every operation that ships a view — Initiate, Grow, Shrink, RepairTree,
// a crash/RestoreSessions and ReincarnateAt — and after each checks every
// member against the layout oracle. No member is ever sent the roster,
// so this is what ties the views to the one tree the initiator laid.
func TestTreeViewsMatchLayoutOracle(t *testing.T) {
	const sid, k, n = "tree-views", 3, 40
	w := newSWorld(t)

	// One member runs under a runtime so it can crash and restart with
	// its store intact; its behaviour restores sessions like a real one.
	var mu sync.Mutex
	managed := make(map[string]*session.Service)
	w.RT.Registry().Register("member", core.Factory(func() core.Behavior {
		return core.BehaviorFunc(func(d *core.Dapplet) error {
			svc := session.Attach(d, session.Policy{})
			if _, err := svc.RestoreSessions(); err != nil {
				return err
			}
			mu.Lock()
			managed[d.Name()] = svc
			mu.Unlock()
			return nil
		})
	}))
	const crasher = "m07" // an interior relay at fanout 3 in every layout below
	svcOf := func(name string) *session.Service {
		mu.Lock()
		defer mu.Unlock()
		if s, ok := managed[name]; ok {
			return s
		}
		return w.services[name]
	}

	// Spec order is the reverse of name order, so the tree Initiate lays
	// (spec order) differs from the one every later operation lays (name
	// order) and a member that guessed would be caught.
	names := make([]string, n)
	dapplets := make(map[string]*core.Dapplet, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", n-1-i)
		if names[i] == crasher {
			if _, err := w.Launch(context.Background(), "crashsite", "member", crasher); err != nil {
				t.Fatal(err)
			}
			continue
		}
		dapplets[names[i]] = w.add(fmt.Sprintf("site%d", i%8), names[i], "member", session.Policy{})
	}
	ini := w.initiator("site0", "director")
	ctx := context.Background()

	h, err := ini.Initiate(ctx, treeSpec(sid, names, k))
	if err != nil {
		t.Fatal(err)
	}
	order := h.Participants() // name order: the spec's, reversed
	slices.Reverse(order)
	checkLayout(t, "Initiate", sid, order, k, svcOf)

	// Grow: a name that sorts into the middle, so half the heap shifts.
	w.add("site9", "m19x", "member", session.Policy{})
	if err := h.Grow(ctx, session.Participant{Name: "m19x", Role: "member"}, nil); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "Grow", sid, h.Participants(), k, svcOf)

	if err := h.Shrink(ctx, "m02"); err != nil {
		t.Fatal(err)
	}
	if w.services["m02"].Relay().Bound(sid) {
		t.Fatal("Shrink: the departed member is still tree-bound")
	}
	checkLayout(t, "Shrink", sid, h.Participants(), k, svcOf)

	dapplets["m01"].Stop() // an interior relay dies outright
	if err := h.RepairTree(ctx, "m01"); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "RepairTree", sid, h.Participants(), k, svcOf)

	// Crash and restart: RestoreSessions must rebind the new incarnation
	// to the neighbours its predecessor persisted, before any relink.
	if err := w.RT.Crash(crasher); err != nil {
		t.Fatal(err)
	}
	revived, err := w.RT.Restart(crasher)
	if err != nil {
		t.Fatal(err)
	}
	want := layoutOver(h.Participants(), k).Neighbors(crasher)
	if len(want) < 2 {
		t.Fatalf("%s is not interior any more (neighbours %v); pick another crasher", crasher, want)
	}
	if got, _ := svcOf(crasher).Relay().Neighbors(sid); !slices.Equal(got, want) {
		t.Fatalf("RestoreSessions rebound %s to %v, its store should say %v", crasher, got, want)
	}

	if err := h.ReincarnateAt(ctx, crasher, revived.Addr()); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "ReincarnateAt", sid, h.Participants(), k, svcOf)
	if err := h.Terminate(ctx); err != nil {
		t.Fatal(err)
	}
}

// setupCost initiates one n-member tree session (default fanout, default
// transport, as bench's session_setup does) on a fresh network and
// returns what it put on the wire: every dapplet's payload bytes out plus
// a 28-byte UDP/IPv4 header per datagram — the quantity bench's
// session.setup_wire_bytes reads off the simulator. The budget is for a
// loss-free set-up, so a run in which this box stalled long enough for a
// retransmit timer to fire is measured again.
func setupCost(t *testing.T, n int) uint64 {
	t.Helper()
	for attempt := 0; ; attempt++ {
		cost, retransmits := measureSetup(t, n)
		if retransmits == 0 || attempt == 4 {
			return cost
		}
	}
}

func measureSetup(t *testing.T, n int) (cost, retransmits uint64) {
	t.Helper()
	w := world.New(transport.Config{})
	defer w.Close()
	var dapplets []*core.Dapplet
	add := func(host, name string) *core.Dapplet {
		d := w.Dapplet(host, "member", name)
		dapplets = append(dapplets, d)
		return d
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%03d", i)
		d := add(fmt.Sprintf("h%02d", i%32), names[i])
		session.Attach(d, session.Policy{})
		w.Dir.Register(context.Background(), directory.Entry{Name: names[i], Type: "member", Addr: d.Addr()})
	}
	ini := session.NewInitiator(add("hini", "ini"), w.Dir)
	wire := func() (total uint64) {
		for _, d := range dapplets {
			st := d.Transport().Stats()
			total += st.BytesOut + 28*st.DatagramsOut
		}
		return total
	}
	before := wire()
	if _, err := ini.Initiate(context.Background(), treeSpec("bench-00000001", names, 0)); err != nil {
		t.Fatal(err)
	}
	// Initiate returns on the last invite reply; the transport acks of
	// those replies trail it. Read once the counters stand still.
	cost = wire() - before
	for settled := 0; settled < 3; {
		time.Sleep(10 * time.Millisecond)
		if now := wire() - before; now == cost {
			settled++
		} else {
			cost, settled = now, 0
		}
	}
	for _, d := range dapplets {
		retransmits += d.Transport().Stats().Retransmits
	}
	return cost, retransmits
}

// TestTreeSetupWireBudget gates the session_setup count row from inside
// the repo: setting up 64 participants costs at most 45 KB on the wire
// (it was 117 KB when every invite carried the roster), and the cost
// grows linearly in the group size — 4× the members may cost at most 5×
// the bytes, where roster shipping cost ~16×.
func TestTreeSetupWireBudget(t *testing.T) {
	c32, c64, c128 := setupCost(t, 32), setupCost(t, 64), setupCost(t, 128)
	t.Logf("Initiate wire bytes: N=32 %d, N=64 %d, N=128 %d (×%.2f from 32 to 128)", c32, c64, c128, float64(c128)/float64(c32))
	if c64 > 45_000 {
		t.Errorf("Initiate of 64 put %d bytes on the wire, budget 45000", c64)
	}
	if c128 > 5*c32 {
		t.Errorf("Initiate grew %d → %d bytes from 32 to 128 participants (×%.1f); linear is ×4, budget ×5",
			c32, c128, float64(c128)/float64(c32))
	}
}

// TestPeerLookupRacesRelink reads a membership by role while Grow
// relinks it: Peer and Peers must take the lock onRelink replaces the
// roster under. Meaningful under -race.
func TestPeerLookupRacesRelink(t *testing.T) {
	w := newSWorld(t)
	w.add("caltech", "secretary", "secretary", session.Policy{})
	w.add("rice", "herb", "calendar", session.Policy{})
	ini := w.initiator("caltech", "director")
	h, err := ini.Initiate(context.Background(), starSpec("s-race", []string{"herb"}, "secretary"))
	if err != nil {
		t.Fatal(err)
	}
	mem, ok := w.services["herb"].Membership("s-race")
	if !ok {
		t.Fatal("herb has no membership")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := mem.Peer("hub"); !ok {
				t.Error("hub vanished from the roster mid-relink")
				return
			}
			_ = mem.Peers("member")
		}
	}()
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("late%d", i)
		w.add("tennessee", name, "calendar", session.Policy{})
		if err := h.Grow(context.Background(), session.Participant{Name: name, Role: "member"}, nil); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := len(mem.Peers("member")); got != 9 {
		t.Fatalf("members on herb's roster after 8 grows = %d, want 9", got)
	}
}
