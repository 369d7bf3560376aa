package core

import (
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestMessagePathAllocs is the message path's allocation budget: one
// Outbox.Send and one Inbox.ReceiveEnvelope over a netsim pair, counted
// across every goroutine they involve (sender, transport receive loop,
// receiver). What remains is the decoded Envelope and its body, which
// the consumer keeps.
func TestMessagePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w := newWorld(t)
	src := w.dapplet("a", "src")
	dst := w.dapplet("b", "dst")
	in := dst.Inbox("in")
	out := src.Outbox("out")
	out.Add(in.Ref())
	msg := &wire.Bytes{B: make([]byte, 64)}
	roundTrip := func() {
		if err := out.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := in.ReceiveEnvelope(); err != nil {
			t.Fatal(err)
		}
	}
	for range 2000 { // warm the pools, the free list and the decoder
		roundTrip()
	}
	const budget = 3
	allocs := testing.AllocsPerRun(2000, roundTrip)
	t.Logf("%.2f allocations per message", allocs)
	if allocs > budget {
		t.Fatalf("one Send plus one ReceiveEnvelope allocates %.2f times, want <= %d", allocs, budget)
	}
}

// TestInboxReleasesConsumedEnvelopes: once received and dropped by its
// consumer, an envelope is garbage even while the inbox still holds
// later ones.
func TestInboxReleasesConsumedEnvelopes(t *testing.T) {
	in := newInbox(nil, "in")
	first := pushTwo(in)
	if _, ok := in.TryReceive(); !ok {
		t.Fatal("inbox empty after two pushes")
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("a received envelope is still reachable from the inbox")
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d, want 1", in.Len())
	}
}

// pushTwo queues two envelopes and returns a weak pointer to the first;
// it keeps no strong one.
func pushTwo(in *Inbox) weak.Pointer[wire.Envelope] {
	a := &wire.Envelope{Body: &wire.Text{S: "first"}}
	in.push(a)
	in.push(&wire.Envelope{Body: &wire.Text{S: "second"}})
	return weak.Make(a)
}

// TestInboxQueueRestartsWhenDrained: a queue that empties starts again
// at the front of its array, and one that never empties slides its
// backlog down rather than growing without bound. Order holds
// throughout.
func TestInboxQueueRestartsWhenDrained(t *testing.T) {
	in := newInbox(nil, "in")
	next, want := 0, 0
	push := func() {
		in.push(&wire.Envelope{Lamport: uint64(next)})
		next++
	}
	pop := func() {
		env, err := in.ReceiveEnvelope() // never blocks: something is queued
		if err != nil {
			t.Fatal(err)
		}
		if env.Lamport != uint64(want) {
			t.Fatalf("received %d, want %d", env.Lamport, want)
		}
		want++
	}
	slots := func() (queued, capacity int) {
		in.mu.Lock()
		defer in.mu.Unlock()
		return in.lenLocked(), cap(in.q)
	}
	for range 100 { // an idle channel: one in, one out
		push()
		pop()
	}
	if _, c := slots(); c != 1 {
		t.Fatalf("an idle channel grew its queue to %d slots", c)
	}
	for range 4 {
		push()
	}
	for range 10000 { // a standing backlog of four
		push()
		pop()
	}
	if n, c := slots(); n != 4 || c > 16 {
		t.Fatalf("backlog of 4 holds %d slots (%d queued)", c, n)
	}
	for range 4 {
		pop()
	}
}

// TestOutboxBindingsCopyOnWrite: a binding list Send has read stays as
// it was, whatever Add and Delete do after the unlock.
func TestOutboxBindingsCopyOnWrite(t *testing.T) {
	o := newOutbox(nil, "out")
	ref := func(i int) wire.InboxRef {
		return wire.InboxRef{Dapplet: netsim.Addr{Host: "h", Port: uint16(i)}, Inbox: "in"}
	}
	for i := range 4 {
		o.Add(ref(i))
	}
	snapshot := func() []wire.InboxRef {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.dests
	}
	read := snapshot()
	want := slices.Clone(read)
	if err := o.Delete(ref(1)); err != nil {
		t.Fatal(err)
	}
	o.Add(ref(9))
	if !slices.Equal(read, want) {
		t.Fatalf("Delete and Add wrote into a published list: %v, was %v", read, want)
	}
	read = snapshot()
	want = slices.Clone(read)
	if err := o.Delete(ref(9)); err != nil { // the last entry
		t.Fatal(err)
	}
	o.Add(ref(7))
	if !slices.Equal(read, want) {
		t.Fatalf("Delete and Add wrote into a published list after the last entry went: %v, was %v", read, want)
	}
}
