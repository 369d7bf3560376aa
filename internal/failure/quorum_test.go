package failure_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// quorumDetector attaches a detector with a gossip engine fed by its
// live-peer view: its Down verdicts need a quorum of two confirmers.
func quorumDetector(d *core.Dapplet, cfg failure.Config) *failure.Detector {
	cfg.Gossip = gossip.Attach(d, gossip.Config{Interval: 20 * time.Millisecond})
	det := failure.Attach(d, cfg)
	cfg.Gossip.SetPeerSource(det.GossipPeers)
	return det
}

// quorumMesh builds a full watch mesh of quorum detectors over the
// given dapplets. It returns the detectors in dapplet order.
func quorumMesh(daps []*core.Dapplet, cfg failure.Config) []*failure.Detector {
	dets := make([]*failure.Detector, len(daps))
	for i, d := range daps {
		dets[i] = quorumDetector(d, cfg)
	}
	for i := range daps {
		for j, p := range daps {
			if i != j {
				dets[i].Watch(p.Name(), p.Addr())
			}
		}
	}
	return dets
}

func waitAllUp(t *testing.T, dets []*failure.Detector, daps []*core.Dapplet) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for i := range dets {
			for j := range daps {
				if i == j {
					continue
				}
				if st, have := dets[i].Status(daps[j].Name()); !have || st != failure.Up {
					ok = false
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("mesh never fully Up")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartitionedWatcherHoldsSuspect is the split-brain regression: a
// single watcher cut off from its target — while relays still reach both
// sides — must never commit a Down verdict, because its indirect probes
// come back "reachable" and refute the suspicion. After the partition
// heals, direct heartbeats settle the peer back to Up.
func TestPartitionedWatcherHoldsSuspect(t *testing.T) {
	// A quorum of two exists only with gossip, the configuration the
	// subtest is named for.
	t.Run("with-gossip", func(t *testing.T) {
		w := newWorld(t, netsim.WithSeed(21))
		wd := w.Dapplet("hw", "test", "w")
		tgt := w.Dapplet("ht", "test", "tgt")
		r1 := w.Dapplet("h1", "test", "r1")
		r2 := w.Dapplet("h2", "test", "r2")
		daps := []*core.Dapplet{wd, tgt, r1, r2}
		// The no-false-positive guarantee is conditional on relays
		// answering "reachable" within the watcher's detection window. A
		// 50ms interval gives the refutation chain (iprobe relay -> probe
		// RTT -> iprobe-rep) a 100ms window, so scheduling stalls on a
		// loaded single-core runner don't let a relay's own transient
		// suspicion rumor fill the quorum first.
		cfg := failure.Config{Interval: 50 * time.Millisecond, Multiplier: 2}
		dets := quorumMesh(daps, cfg)
		dw := dets[0]

		downs := 0
		done := make(chan struct{})
		dw.OnEvent(func(ev failure.Event) {
			if ev.Peer == "tgt" && ev.State == failure.Down {
				select {
				case <-done:
				default:
					downs++
				}
			}
		})
		waitAllUp(t, dets, daps)

		// Cut only the watcher <-> target link, both directions; the relays
		// keep full connectivity.
		w.Net.SetLoss("hw", "ht", 1)
		time.Sleep(1500 * time.Millisecond)
		if downs != 0 {
			t.Fatalf("partitioned watcher committed %d Down verdicts", downs)
		}

		// Heal: the direct heartbeats resume and the suspicion clears for
		// good.
		w.Net.SetLoss("hw", "ht", 0)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st, ok := dw.Status("tgt"); ok && st == failure.Up {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("suspicion never cleared after heal")
			}
			time.Sleep(time.Millisecond)
		}
		close(done)
		if downs != 0 {
			t.Fatalf("Down verdicts after heal: %d", downs)
		}
	})
}

// TestQuorumConfirmsRealCrash proves the quorum rule still detects true
// positives: when the target actually dies, the relays' indirect probes
// fail too, the quorum fills, and every watcher reaches Down.
func TestQuorumConfirmsRealCrash(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(22))
	wd := w.Dapplet("hw", "test", "w")
	tgt := w.Dapplet("ht", "test", "tgt")
	r1 := w.Dapplet("h1", "test", "r1")
	r2 := w.Dapplet("h2", "test", "r2")
	daps := []*core.Dapplet{wd, tgt, r1, r2}
	cfg := failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2}
	dets := quorumMesh(daps, cfg)

	events := make(chan failure.Event, 64)
	dets[0].OnEvent(func(ev failure.Event) {
		if ev.Peer == "tgt" {
			select {
			case events <- ev:
			default:
			}
		}
	})
	waitAllUp(t, dets, daps)

	w.Net.Crash("ht")
	awaitState(t, events, failure.Down, 10*time.Second)
	if st, _ := dets[0].Status("tgt"); st != failure.Down {
		t.Fatalf("watcher status = %v, want Down", st)
	}
}

// TestPartitionedReplicaNoSpuriousExpiry wires the quorum detector to a
// live directory replica: cutting the replica off from one registered
// member must not expire that member's entry nor reincarnate it at a
// stale address, because the replica's suspicion is refuted by relays
// that still reach the member.
func TestPartitionedReplicaNoSpuriousExpiry(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(23))
	dr := w.Dapplet("hd", "test", "dir-0-0")
	// 50ms as in TestPartitionedWatcherHoldsSuspect: the no-spurious-
	// expiry guarantee needs the relays' refutations to land inside the
	// replica's detection window even when the runner stalls.
	det := quorumDetector(dr, failure.Config{Interval: 50 * time.Millisecond, Multiplier: 2})
	dir := directory.Serve(dr)
	failure.BindDirectory(det, dir)

	m := w.Dapplet("hm", "test", "m")
	r1 := w.Dapplet("h1", "test", "r1")
	r2 := w.Dapplet("h2", "test", "r2")
	// Every member heartbeats the replica; the replica watches them via
	// the directory binding once they register.
	for _, d := range []*core.Dapplet{m, r1, r2} {
		md := failure.Attach(d, failure.Config{Interval: 50 * time.Millisecond, Multiplier: 2})
		md.Watch(dr.Name(), dr.Addr())
	}

	cl, err := directory.NewCluster([][]wire.InboxRef{{dir.Ref()}})
	if err != nil {
		t.Fatal(err)
	}
	cliD := w.Dapplet("hc", "test", "cli")
	cli := directory.NewClient(cliD, cl)
	ctx := context.Background()
	for _, d := range []*core.Dapplet{m, r1, r2} {
		if err := cli.Register(ctx, directory.Entry{Name: d.Name(), Type: "t", Addr: d.Addr()}); err != nil {
			t.Fatal(err)
		}
	}
	mAddr := m.Addr()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, ok := det.Status("m"); ok && st == failure.Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never saw m Up")
		}
		time.Sleep(time.Millisecond)
	}

	// Cut replica <-> member only. The relays and the client keep full
	// connectivity, so the replica's indirect probes reach m and refute.
	w.Net.SetLoss("hd", "hm", 1)
	time.Sleep(1500 * time.Millisecond)

	e, _, found := dir.Lookup("m")
	if !found {
		t.Fatal("partitioned replica expired a live member's entry")
	}
	if e.Addr != mAddr {
		t.Fatalf("entry reincarnated to %v during partition (was %v)", e.Addr, mAddr)
	}

	w.Net.SetLoss("hd", "hm", 0)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if st, ok := det.Status("m"); ok && st == failure.Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica's suspicion of m never cleared after heal")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuorumCrashExpiresEntry is the true-positive half of the directory
// binding: a real crash of a registered member fills the quorum and the
// replica expires the entry.
func TestQuorumCrashExpiresEntry(t *testing.T) {
	w := newWorld(t, netsim.WithSeed(24))
	dr := w.Dapplet("hd", "test", "dir-0-0")
	det := quorumDetector(dr, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2})
	dir := directory.Serve(dr)
	failure.BindDirectory(det, dir)

	m := w.Dapplet("hm", "test", "m")
	r1 := w.Dapplet("h1", "test", "r1")
	r2 := w.Dapplet("h2", "test", "r2")
	for _, d := range []*core.Dapplet{m, r1, r2} {
		md := failure.Attach(d, failure.Config{Interval: 10 * time.Millisecond, Multiplier: 2})
		md.Watch(dr.Name(), dr.Addr())
	}
	cl, err := directory.NewCluster([][]wire.InboxRef{{dir.Ref()}})
	if err != nil {
		t.Fatal(err)
	}
	cliD := w.Dapplet("hc", "test", "cli")
	cli := directory.NewClient(cliD, cl)
	ctx := context.Background()
	for _, d := range []*core.Dapplet{m, r1, r2} {
		if err := cli.Register(ctx, directory.Entry{Name: d.Name(), Type: "t", Addr: d.Addr()}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, ok := det.Status("m"); ok && st == failure.Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never saw m Up")
		}
		time.Sleep(time.Millisecond)
	}

	w.Net.Crash("hm")
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, _, found := dir.Lookup("m"); !found {
			return // expired
		}
		if time.Now().After(deadline) {
			t.Fatal("crashed member's entry never expired under quorum")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSuspectLiftBesideParkedRumor: a detector's Up->Suspect transition
// holds emitMu while its gossip rumor goes out, and that send can wait
// on a full window for an acknowledgement only the dapplet's receive
// goroutine reads. A frame from the suspect arriving meanwhile must not
// hold that goroutine behind emitMu: the window must free once the
// gossip peer is reachable, with no send failure, and a later frame
// from the suspect must lift the verdict.
func TestSuspectLiftBesideParkedRumor(t *testing.T) {
	w := newWorld(t)
	// A's window to C is one frame deep; C is partitioned away, so the
	// rumor about B parks behind an unacknowledged frame.
	a := w.Dapplet("a", "t", "a", core.WithTransportConfig(transport.Config{RTO: 20 * time.Millisecond, Window: 1}))
	b := w.Dapplet("b", "t", "b")
	c := w.Dapplet("c", "t", "c")
	a.Inbox("app")
	g := gossip.Attach(a, gossip.Config{Interval: time.Hour})
	g.SetPeerSource(func() []wire.InboxRef { return []wire.InboxRef{gossip.Ref(c.Addr())} })
	det := failure.Attach(a, failure.Config{Interval: 20 * time.Millisecond, Multiplier: 3, Gossip: g})
	events := make(chan failure.Event, 8)
	det.OnEvent(func(ev failure.Event) { events <- ev })

	w.Net.Partition([]string{"a"}, []string{"c"})
	if err := a.SendDirect(wire.InboxRef{Dapplet: c.Addr(), Inbox: "x"}, "", &wire.Text{S: "fill"}); err != nil {
		t.Fatal(err)
	}
	det.Watch("b", b.Addr()) // b runs no detector: it goes Suspect
	if ev := awaitState(t, events, failure.Suspect, 5*time.Second); ev.Peer != "b" {
		t.Fatalf("suspected %q, want b", ev.Peer)
	}
	app := wire.InboxRef{Dapplet: a.Addr(), Inbox: "app"}
	if err := b.SendDirect(app, "", &wire.Text{S: "alive"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the frame reaches a's receive goroutine
	w.Net.Heal()

	rel := a.Transport()
	for deadline := time.Now().Add(5 * time.Second); rel.QueueDepth() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a's frames to c never acknowledged: %d queued", rel.QueueDepth())
		}
	}
	if n := rel.Stats().Failures; n != 0 {
		t.Fatalf("%d sends failed: the receive goroutine waited behind the parked rumor", n)
	}
	if err := b.SendDirect(app, "", &wire.Text{S: "still alive"}); err != nil {
		t.Fatal(err)
	}
	if ev := awaitState(t, events, failure.Up, 5*time.Second); ev.Peer != "b" {
		t.Fatalf("lifted %q, want b", ev.Peer)
	}
}
