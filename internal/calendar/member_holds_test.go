package calendar

import (
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// newWorld is a world whose dapplets run a 10 ms RTO, closed when t ends.
func newWorld(t *testing.T, opts ...netsim.Option) *world.World {
	w := world.New(transport.Config{RTO: 10 * time.Millisecond}, opts...)
	t.Cleanup(w.Close)
	return w
}

// propose injects one tentative proposal into the member from the given
// coordinator address, as the wire path would.
func propose(m *MemberBehavior, id uint64, slot int, from netsim.Addr) {
	m.onRequest(&wire.Envelope{
		FromDapplet: from,
		Body:        &schedReq{ID: id, RKind: kindPropose, Slot: slot},
	})
}

// TestProposalHoldLeaseExpiry pins the lease half of hold GC: a tentative
// hold whose coordinator never commits or aborts is garbage-collected
// after the lease, and the slot becomes schedulable again.
func TestProposalHoldLeaseExpiry(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(1))
	d := w.Dapplet("hm", "t", "member")
	m := NewMember(8, nil)
	if err := m.Start(d); err != nil {
		t.Fatal(err)
	}
	m.SetHoldLease(30 * time.Millisecond)

	coordAddr := netsim.Addr{Host: "hq", Port: 1}
	propose(m, 1, 3, coordAddr)
	if m.Holds() != 1 {
		t.Fatalf("holds = %d, want 1", m.Holds())
	}
	if m.freeIn(0, 8).Free(3) {
		t.Fatal("held slot still offered")
	}

	// The coordinator is never heard from again; the lease must clear the
	// hold and free the slot.
	deadline := time.Now().Add(5 * time.Second)
	for m.Holds() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("hold survived its lease")
		}
		time.Sleep(time.Millisecond)
	}
	if !m.freeIn(0, 8).Free(3) {
		t.Fatal("slot not schedulable after lease expiry")
	}
	// A fresh proposal can take the slot again.
	propose(m, 2, 3, coordAddr)
	if m.Holds() != 1 {
		t.Fatal("slot could not be re-proposed")
	}
}

// TestProposalHoldClearedOnCoordinatorDown pins the failure-driven half:
// when the member's detector declares the proposing coordinator Down,
// BindHoldGC clears every hold it proposed — no lease needed.
func TestProposalHoldClearedOnCoordinatorDown(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(2))
	memberD := w.Dapplet("hm", "t", "member")
	coordD := w.Dapplet("hq", "t", "coordinator")
	m := NewMember(8, nil)
	if err := m.Start(memberD); err != nil {
		t.Fatal(err)
	}

	cfg := failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2}
	mdet := failure.Attach(memberD, cfg)
	cdet := failure.Attach(coordD, cfg)
	mdet.Watch(coordD.Name(), coordD.Addr())
	cdet.Watch(memberD.Name(), memberD.Addr())
	BindHoldGC(mdet, m)

	propose(m, 7, 5, coordD.Addr())
	if m.Holds() != 1 {
		t.Fatalf("holds = %d, want 1", m.Holds())
	}

	// The coordinator's machine dies mid-proposal; the Down verdict must
	// clear the hold and make the slot schedulable again.
	w.Net.Crash("hq")
	deadline := time.Now().Add(10 * time.Second)
	for m.Holds() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("hold survived the coordinator's Down verdict")
		}
		time.Sleep(time.Millisecond)
	}
	if !m.freeIn(0, 8).Free(5) {
		t.Fatal("slot not schedulable after coordinator death")
	}
}
