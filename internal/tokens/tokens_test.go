package tokens_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/tokens"
	"repro/internal/transport"
	"repro/internal/world"
)

// ctx bounds nothing: these tests wait on their own timers.
var ctx = context.Background()

// tworld is a world with a token allocator on host "hub".
type tworld struct {
	*world.World
	alloc *tokens.Allocator
}

func newTWorld(t *testing.T, initial tokens.Bag, opts ...netsim.Option) *tworld {
	t.Helper()
	w := &tworld{World: world.New(transport.Config{RTO: 20 * time.Millisecond}, opts...)}
	t.Cleanup(w.Close)
	w.alloc = tokens.Serve(w.Dapplet("hub", "t", "allocator-host"), initial)
	return w
}

func (w *tworld) manager(host, name string) *tokens.Manager {
	return tokens.NewManager(w.Dapplet(host, "t", name), w.alloc.Ref())
}

func TestBagOperations(t *testing.T) {
	b := tokens.Bag{"red": 2, "blue": 1}
	if b.Count() != 3 || b.IsEmpty() {
		t.Fatalf("count = %d", b.Count())
	}
	c := b.Copy()
	c.Add(tokens.Bag{"red": 1})
	if b["red"] != 2 || c["red"] != 3 {
		t.Fatal("Copy aliases")
	}
	if !c.Contains(tokens.Bag{"red": 3, "blue": 1}) {
		t.Fatal("Contains false negative")
	}
	if c.Contains(tokens.Bag{"green": 1}) {
		t.Fatal("Contains false positive")
	}
	if ok := c.Sub(tokens.Bag{"red": 99}); ok {
		t.Fatal("oversubtraction allowed")
	}
	if !c.Sub(tokens.Bag{"red": 3}) {
		t.Fatal("valid subtraction refused")
	}
	if _, present := c["red"]; present {
		t.Fatal("zero entry not normalized away")
	}
	n := tokens.Bag{"x": 0, "y": -3, "z": 1}.Normalize()
	if len(n) != 1 || n["z"] != 1 {
		t.Fatalf("Normalize = %v", n)
	}
}

func TestBagAddSubInverseProperty(t *testing.T) {
	f := func(r1, b1, r2, b2 uint8) bool {
		base := tokens.Bag{"r": int(r1%50) + 1, "b": int(b1%50) + 1}
		delta := tokens.Bag{"r": int(r2 % uint8(base["r"])), "b": int(b2 % uint8(base["b"]))}.Normalize()
		got := base.Copy()
		got.Add(delta)
		if !got.Sub(delta) {
			return false
		}
		return got.Count() == base.Count() && got["r"] == base["r"] && got["b"] == base["b"]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRequestReleaseHoldsTotal(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"file": 3, "printer": 1})
	m := w.manager("caltech", "mani")

	tot, err := m.TotalTokens(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tot["file"] != 3 || tot["printer"] != 1 {
		t.Fatalf("total = %v", tot)
	}

	if err := m.Request(ctx, tokens.Bag{"file": 2}); err != nil {
		t.Fatal(err)
	}
	if h := m.Holds(); h["file"] != 2 {
		t.Fatalf("holds = %v", h)
	}
	if err := m.Release(tokens.Bag{"file": 1}); err != nil {
		t.Fatal(err)
	}
	if h := m.Holds(); h["file"] != 1 {
		t.Fatalf("holds after release = %v", h)
	}
	if !w.alloc.ConservationHolds() {
		t.Fatal("conservation violated")
	}
}

func TestReleaseNotHeld(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"x": 1})
	m := w.manager("h", "greedy")
	if err := m.Release(tokens.Bag{"x": 1}); !errors.Is(err, tokens.ErrNotHeld) {
		t.Fatalf("err = %v, want ErrNotHeld", err)
	}
	if err := m.Request(ctx, tokens.Bag{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(tokens.Bag{"x": 2}); !errors.Is(err, tokens.ErrNotHeld) {
		t.Fatalf("over-release err = %v", err)
	}
	// The failed release must not have leaked anything.
	if h := m.Holds(); h["x"] != 1 {
		t.Fatalf("holds = %v", h)
	}
}

func TestUnknownColor(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"x": 1})
	m := w.manager("h", "confused")
	if err := m.Request(ctx, tokens.Bag{"nonexistent": 1}); !errors.Is(err, tokens.ErrUnknownColor) {
		t.Fatalf("err = %v, want ErrUnknownColor", err)
	}
}

func TestRequestBlocksUntilRelease(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"mutex": 1})
	holder := w.manager("h1", "holder")
	waiter := w.manager("h2", "waiter")
	if err := holder.Request(ctx, tokens.Bag{"mutex": 1}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- waiter.Request(ctx, tokens.Bag{"mutex": 1}) }()
	select {
	case err := <-got:
		t.Fatalf("waiter acquired held token: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := holder.Release(tokens.Bag{"mutex": 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after release")
	}
}

func TestMutualExclusionWithSingleToken(t *testing.T) {
	// "Suppose we want at most one process to modify an object at any
	// point: we associate a single token with that object" (§4.1).
	w := newTWorld(t, tokens.Bag{"object": 1})
	const workers, rounds = 4, 10
	var inCS, maxCS int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		m := w.manager("h", "w"+string(rune('0'+i)))
		wg.Add(1)
		go func(m *tokens.Manager) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := m.Request(ctx, tokens.Bag{"object": 1}); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				inCS++
				if inCS > maxCS {
					maxCS = inCS
				}
				mu.Unlock()
				mu.Lock()
				inCS--
				mu.Unlock()
				if err := m.Release(tokens.Bag{"object": 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(m)
	}
	wg.Wait()
	if maxCS != 1 {
		t.Fatalf("mutual exclusion violated: %d concurrent holders", maxCS)
	}
	if !w.alloc.ConservationHolds() {
		t.Fatal("conservation violated")
	}
}

func TestDeadlockDetectionTwoPhilosophers(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"fork1": 1, "fork2": 1})
	a := w.manager("h1", "philosopher-a")
	b := w.manager("h2", "philosopher-b")
	if err := a.Request(ctx, tokens.Bag{"fork1": 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Request(ctx, tokens.Bag{"fork2": 1}); err != nil {
		t.Fatal(err)
	}
	// Now cross-request: a deadlock the managers must detect.
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() { errA <- a.Request(ctx, tokens.Bag{"fork2": 1}) }()
	go func() { errB <- b.Request(ctx, tokens.Bag{"fork1": 1}) }()
	deadlocked := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-errA:
			if errors.Is(err, tokens.ErrDeadlock) {
				deadlocked++
			} else if err != nil {
				t.Fatalf("a: %v", err)
			}
			errA = nil
		case err := <-errB:
			if errors.Is(err, tokens.ErrDeadlock) {
				deadlocked++
			} else if err != nil {
				t.Fatalf("b: %v", err)
			}
			errB = nil
		case <-time.After(10 * time.Second):
			t.Fatalf("deadlock not detected (stats=%+v)", w.alloc.Stats())
		}
	}
	if deadlocked == 0 {
		t.Fatal("no request received the deadlock exception")
	}
	if st := w.alloc.Stats(); st.Deadlocks == 0 {
		t.Fatalf("allocator counted no deadlocks: %+v", st)
	}
	if !w.alloc.ConservationHolds() {
		t.Fatal("conservation violated after deadlock")
	}
}

func TestNoFalseDeadlockWithFreeableHolder(t *testing.T) {
	// a blocks on "blue" held by b, but b is NOT blocked, so the graph
	// reduces and no deadlock may be declared.
	w := newTWorld(t, tokens.Bag{"blue": 1, "red": 2})
	a := w.manager("h1", "a")
	b := w.manager("h2", "b")
	if err := b.Request(ctx, tokens.Bag{"blue": 1}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- a.Request(ctx, tokens.Bag{"blue": 1}) }()
	select {
	case err := <-got:
		t.Fatalf("premature completion: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := b.Release(tokens.Bag{"blue": 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("false deadlock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("grant never arrived")
	}
}

func TestDiningPhilosophersOrderedAcquisitionCompletes(t *testing.T) {
	// With a release-all-before-requesting discipline (request both forks
	// atomically), the paper promises deadlock freedom.
	const n = 5
	initial := tokens.Bag{}
	for i := 0; i < n; i++ {
		initial[tokens.Color("fork"+string(rune('0'+i)))] = 1
	}
	w := newTWorld(t, initial)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		m := w.manager("h", "phil"+string(rune('0'+i)))
		left := tokens.Color("fork" + string(rune('0'+i)))
		right := tokens.Color("fork" + string(rune('0'+(i+1)%n)))
		wg.Add(1)
		go func(m *tokens.Manager) {
			defer wg.Done()
			for meal := 0; meal < 5; meal++ {
				// Atomic multi-resource request: no hold-and-wait.
				if err := m.Request(ctx, tokens.Bag{left: 1, right: 1}); err != nil {
					t.Errorf("%v", err)
					return
				}
				if err := m.Release(tokens.Bag{left: 1, right: 1}); err != nil {
					t.Errorf("%v", err)
					return
				}
			}
		}(m)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("philosophers starved")
	}
	if st := w.alloc.Stats(); st.Deadlocks != 0 {
		t.Fatalf("spurious deadlocks: %+v", st)
	}
	if !w.alloc.ConservationHolds() {
		t.Fatal("conservation violated")
	}
}

func TestTimestampPriorityOnContention(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"t": 1})
	holder := w.manager("h0", "holder")
	early := w.manager("h1", "a-early")
	late := w.manager("h2", "b-late")
	if err := holder.Request(ctx, tokens.Bag{"t": 1}); err != nil {
		t.Fatal(err)
	}
	// Give the late requester a much larger clock so its stamp loses.
	for i := 0; i < 100; i++ {
		late.Holds() // no-op; advance real time slightly
	}
	lateD := late
	_ = lateD
	earlyC := make(chan error, 1)
	lateC := make(chan error, 1)
	go func() { earlyC <- early.Request(ctx, tokens.Bag{"t": 1}) }()
	time.Sleep(50 * time.Millisecond) // ensure early's request arrives first
	go func() { lateC <- late.Request(ctx, tokens.Bag{"t": 1}) }()
	time.Sleep(50 * time.Millisecond)
	if err := holder.Release(tokens.Bag{"t": 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-earlyC:
		if err != nil {
			t.Fatal(err)
		}
	case <-lateC:
		t.Fatal("later-stamped request granted first")
	case <-time.After(5 * time.Second):
		t.Fatal("no grant at all")
	}
	// Clean up: release so the late requester completes.
	if err := early.Release(tokens.Bag{"t": 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-lateC:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late requester starved")
	}
}

func TestRequestAllAndRWLock(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"doc": 3})
	writer := w.manager("h1", "writer")
	r1 := w.manager("h2", "reader1")
	r2 := w.manager("h3", "reader2")

	// Two concurrent readers are fine.
	l1, l2 := tokens.NewRWLock(r1, "doc"), tokens.NewRWLock(r2, "doc")
	if err := l1.RLock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l2.RLock(ctx); err != nil {
		t.Fatal(err)
	}

	// Writer must wait for all tokens.
	wl := tokens.NewRWLock(writer, "doc")
	wGot := make(chan error, 1)
	go func() { wGot <- wl.Lock(ctx) }()
	select {
	case err := <-wGot:
		t.Fatalf("writer locked alongside readers: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := l1.RUnlock(); err != nil {
		t.Fatal(err)
	}
	if err := l2.RUnlock(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wGot:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer starved")
	}
	if writer.Holds()["doc"] != 3 {
		t.Fatalf("writer holds %v", writer.Holds())
	}
	// Readers blocked while writer holds all tokens.
	rGot := make(chan error, 1)
	go func() { rGot <- l1.RLock(ctx) }()
	select {
	case err := <-rGot:
		t.Fatalf("reader locked alongside writer: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := wl.Unlock(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-rGot:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader starved after writer unlock")
	}
	if err := l1.RUnlock(); err != nil {
		t.Fatal(err)
	}
	if err := wl.Unlock(); !errors.Is(err, tokens.ErrNotHeld) {
		t.Fatalf("double unlock err = %v", err)
	}
}

func TestConservationUnderRandomWorkload(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"a": 4, "b": 3, "c": 2}, netsim.WithSeed(99))
	m := w.manager("h", "rand-client")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		free := w.alloc.Free()
		want := tokens.Bag{}
		for c, n := range free {
			if n > 0 {
				want[c] = rng.Intn(n + 1)
			}
		}
		want.Normalize()
		if want.IsEmpty() {
			continue
		}
		if err := m.Request(ctx, want); err != nil {
			t.Fatal(err)
		}
		if !w.alloc.ConservationHolds() {
			t.Fatalf("conservation violated after request %d", i)
		}
		if err := m.ReleaseAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Let the final release settle, then verify everything returned.
	deadline := time.Now().Add(5 * time.Second)
	for w.alloc.Free().Count() != 9 {
		if time.Now().After(deadline) {
			t.Fatalf("tokens leaked: free=%v", w.alloc.Free())
		}
		time.Sleep(time.Millisecond)
	}
	if !w.alloc.ConservationHolds() {
		t.Fatal("conservation violated at end")
	}
}

// TestTwoManagersOneDapplet is the paper's shape of a dapplet in two
// sessions, each with its own allocator: two managers on one dapplet,
// requesting concurrently, must each get their own grants. With a reply
// inbox shared between managers one's grant could wake the other.
func TestTwoManagersOneDapplet(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"a": 1})
	allocB := tokens.Serve(w.Dapplet("hub-b", "t", "allocator-b"), tokens.Bag{"b": 1})
	d := w.Dapplet("h", "t", "two-sessions")
	mgrs := map[tokens.Color]*tokens.Manager{
		"a": tokens.NewManager(d, w.alloc.Ref()),
		"b": tokens.NewManager(d, allocB.Ref()),
	}
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for col, m := range mgrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				if err := m.Request(ctx, tokens.Bag{col: 1}); err != nil {
					t.Errorf("manager %s round %d: %v", col, round, err)
					return
				}
				if err := m.Release(tokens.Bag{col: 1}); err != nil {
					t.Errorf("manager %s round %d: %v", col, round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, a := range []*tokens.Allocator{w.alloc, allocB} {
		if !a.ConservationHolds() || a.Stats().Grants != 200 {
			t.Fatalf("allocator: conservation %v, %+v", a.ConservationHolds(), a.Stats())
		}
	}
}

// TestAbandonedRequestReleasesLateGrant withdraws a request whose
// context ends while it is queued: the grant the allocator sends once the
// token frees up is handed straight back, so no token is stranded with a
// dapplet that gave up on it.
func TestAbandonedRequestReleasesLateGrant(t *testing.T) {
	w := newTWorld(t, tokens.Bag{"mutex": 1})
	holder := w.manager("h1", "holder")
	waiter := w.manager("h2", "waiter")
	if err := holder.Request(ctx, tokens.Bag{"mutex": 1}); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := waiter.Request(short, tokens.Bag{"mutex": 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if err := holder.Release(tokens.Bag{"mutex": 1}); err != nil {
		t.Fatal(err)
	}
	// The allocator grants the queued request; the waiter releases it.
	deadline := time.Now().Add(5 * time.Second)
	for st := w.alloc.Stats(); st.Grants != 2 || st.Releases != 2 || w.alloc.Free().Count() != 1; st = w.alloc.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("late grant stranded: %+v, free %v", st, w.alloc.Free())
		}
		time.Sleep(time.Millisecond)
	}
	if !w.alloc.ConservationHolds() || !waiter.Holds().IsEmpty() {
		t.Fatalf("conservation %v, waiter holds %v", w.alloc.ConservationHolds(), waiter.Holds())
	}
	if err := waiter.Request(ctx, tokens.Bag{"mutex": 1}); err != nil {
		t.Fatal(err)
	}
}
