package failure

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// rumorMesh attaches a gossip detector to each of n dapplets, every one
// watching every other. The interval is an hour, so no heartbeat or
// verdict timer fires during a test and every peer stays Up.
func rumorMesh(t *testing.T, n int) ([]*core.Dapplet, []*Detector) {
	t.Helper()
	w := world.New(transport.Config{RTO: 20 * time.Millisecond}, netsim.WithSeed(11))
	t.Cleanup(w.Close)
	daps := make([]*core.Dapplet, n)
	dets := make([]*Detector, n)
	for i := range daps {
		daps[i] = w.Dapplet(fmt.Sprintf("h%d", i), "t", fmt.Sprintf("d%d", i))
		dets[i] = Attach(daps[i], Config{Interval: time.Hour, Gossip: true})
	}
	for i, det := range dets {
		for j, p := range daps {
			if i != j {
				det.Watch(p.Name(), p.Addr())
			}
		}
	}
	return daps, dets
}

func waitRumors(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRumorReachesEveryPeerOnce: in a mesh of a detector and its fanout
// of live peers, one rumour reaches every peer on its first hop, and the
// forwards that echo it around the mesh within its hop budget are
// dropped as duplicates: each peer hears it once.
func TestRumorReachesEveryPeerOnce(t *testing.T) {
	_, dets := rumorMesh(t, rumorFanout+1)
	// An alive rumour about a name nobody watches: the verdict machines
	// do nothing with it, so only the spread is under test.
	dets[0].spread(&verdictRumor{Target: "nobody", Verdict: rumorAlive})
	waitRumors(t, "the rumour reaching every peer", func() bool {
		for _, det := range dets[1:] {
			if det.Stats().RumorsReceived == 0 {
				return false
			}
		}
		return true
	})
	// Each peer forwards the rumour once, when it first hears it, to
	// the two peers other than the hop it came from: 3 + 3×2 sends, of
	// which all but the 3 first hearings are duplicates.
	waitRumors(t, "the echoes", func() bool {
		var dups uint64
		for _, det := range dets {
			dups += det.Stats().RumorsDuplicate
		}
		return dups == 6
	})
	time.Sleep(50 * time.Millisecond) // no later echo may deliver it again
	var sent uint64
	for i, det := range dets {
		st := det.Stats()
		sent += st.RumorsSent
		want := uint64(1)
		if i == 0 {
			want = 0 // the origin remembers its own rumour
		}
		if st.RumorsReceived != want {
			t.Errorf("detector %d heard the rumour %d times, want %d", i, st.RumorsReceived, want)
		}
	}
	if sent != 9 {
		t.Errorf("%d rumour transmissions, want 9", sent)
	}
}

// TestRumorDuplicateDropped: the same (origin, seq) arriving twice is
// heard once and counted once as a duplicate.
func TestRumorDuplicateDropped(t *testing.T) {
	daps, dets := rumorMesh(t, 2)
	r := &verdictRumor{Target: "nobody", Verdict: rumorAlive, Origin: "d0", Seq: 7}
	dets[0].sendRumor(daps[1].Addr(), r)
	dets[0].sendRumor(daps[1].Addr(), r)
	waitRumors(t, "both copies", func() bool {
		st := dets[1].Stats()
		return st.RumorsReceived+st.RumorsDuplicate == 2
	})
	if st := dets[1].Stats(); st.RumorsReceived != 1 || st.RumorsDuplicate != 1 {
		t.Fatalf("heard %d, dropped %d, want 1 and 1", st.RumorsReceived, st.RumorsDuplicate)
	}
	if n := dets[1].Stats().RumorsSent; n != 0 {
		t.Fatalf("a TTL-0 rumour was forwarded %d times", n)
	}
}

// TestRumorSampleExcludesSelfAndHop: rumour targets never include this
// dapplet or the hop a rumour arrived from, whether drawn from the live
// view or from a replica's siblings.
func TestRumorSampleExcludesSelfAndHop(t *testing.T) {
	daps, dets := rumorMesh(t, 3)
	det, self, hop, other := dets[0], daps[0].Addr(), daps[1].Addr(), daps[2].Addr()
	det.Watch("me", self) // a watch of our own address is no target
	check := func(what string) {
		t.Helper()
		for i := 0; i < 20; i++ {
			det.mu.Lock()
			got := det.sampleLocked(hop)
			det.mu.Unlock()
			if len(got) != 1 || got[0] != other {
				t.Fatalf("%s: sample excluding %v = %v, want only %v", what, hop, got, other)
			}
		}
	}
	check("live view")

	dir := directory.Serve(daps[0])
	BindDirectory(det, dir)
	var refs []wire.InboxRef
	for _, d := range daps {
		refs = append(refs, wire.InboxRef{Dapplet: d.Addr(), Inbox: directory.ServiceInbox})
	}
	dir.Reconcile(refs, time.Hour)
	check("siblings")
}

// TestRumorWithoutPeersIsHarmless: a detector with no one to rumour to
// originates and hears rumours without sending any.
func TestRumorWithoutPeersIsHarmless(t *testing.T) {
	daps, dets := rumorMesh(t, 2)
	dets[1].Unwatch(daps[0].Name())
	dets[1].spread(&verdictRumor{Target: "nobody", Verdict: rumorSuspect})
	dets[0].sendRumor(daps[1].Addr(), &verdictRumor{Target: "nobody", Verdict: rumorAlive, Origin: "d0", Seq: 1, TTL: rumorTTL})
	waitRumors(t, "the rumour", func() bool { return dets[1].Stats().RumorsReceived == 1 })
	if n := dets[1].Stats().RumorsSent; n != 0 {
		t.Fatalf("a detector without peers sent %d rumours", n)
	}
}
