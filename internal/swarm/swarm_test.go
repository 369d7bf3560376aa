package swarm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
	"time"
)

// lockstepConfig is the shared shape of the determinism runs: small
// enough to finish quickly, churny enough that the log exercises every
// op including awaited crash and revive verdicts.
func lockstepConfig(seed int64) Config {
	return Config{
		N:          32,
		Seed:       seed,
		DirShards:  2,
		Initiators: 2,
		Interval:   40 * time.Millisecond,
		Multiplier: 3,
		Lockstep:   true,
	}
}

// TestLockstepDeterminism runs the same seeded lockstep swarm twice over
// a single-shard network and requires bit-identical event logs: the log
// records only awaited outcomes (which member joined, who reached Down,
// who lifted to Up), so any divergence means churn handling leaked
// scheduling nondeterminism into observable state. The gossip variant
// repeats the check with rumor spread, verdict quorums and directory
// anti-entropy all active — the new background traffic must not leak
// into awaited outcomes either. Each variant's log is also pinned by its
// SHA-256, so a change to the harness's seeded decisions fails here even
// though both runs in one process would still agree.
func TestLockstepDeterminism(t *testing.T) {
	variants := []struct {
		name string
		sum  string
		mod  func(*Config)
	}{
		{"base", "516396b98fbe3c2434ec6244031b1c0fc9d9a0c29b3cb0254aca7027b04b2ba3", func(*Config) {}},
		{"gossip", "7fd36e30bb4ed9529167b63aceba193538b3bc43d5213179e31d1f8c81fbcded", func(c *Config) {
			c.GossipInterval = 50 * time.Millisecond
			c.DirReplicas = 2
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			run := func() []string {
				cfg := lockstepConfig(42)
				v.mod(&cfg)
				rep, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("lockstep run: %v", err)
				}
				if len(rep.EventLog) < 32+40 {
					t.Fatalf("event log has %d lines, want at least %d", len(rep.EventLog), 32+40)
				}
				return rep.EventLog
			}
			a := run()
			b := run()
			if len(a) != len(b) {
				t.Fatalf("event logs differ in length: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("event logs diverge at line %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
				}
			}
			sum := sha256.Sum256([]byte(strings.Join(a, "\n")))
			if got := hex.EncodeToString(sum[:]); got != v.sum {
				t.Fatalf("event log SHA-256 = %s, want %s: the harness's seeded decisions changed", got, v.sum)
			}
			// The log must actually contain awaited verdicts, or
			// determinism is vacuous.
			var crashes, revives int
			for _, line := range a {
				if strings.HasPrefix(line, "crash ") {
					crashes++
				}
				if strings.HasPrefix(line, "revive ") {
					revives++
				}
			}
			if crashes == 0 || revives == 0 {
				t.Fatalf("log exercised %d crashes and %d revives, want both nonzero", crashes, revives)
			}
		})
	}
}

// TestSwarmChurnUnderRace is the satellite race fence: a ~500-member
// swarm under aggressive churn and session load. Run under -race in CI,
// it sweeps the detector timers, symmetric watch wiring, directory
// expiry and the harness's own bookkeeping for data races; afterwards
// the goroutine fence checks the teardown chain leaks nothing.
func TestSwarmChurnUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm churn test is several seconds long")
	}
	baseline := runtime.NumGoroutine()

	rep, err := Run(context.Background(), Config{
		N:           500,
		Seed:        7,
		Initiators:  4,
		Interval:    60 * time.Millisecond,
		Multiplier:  2,
		ChurnRate:   120,
		SessionRate: 200,
		Duration:    4 * time.Second,
	})
	if err != nil {
		t.Fatalf("swarm run: %v", err)
	}

	churn := rep.Phase("churn")
	if churn.Ops == 0 {
		t.Fatal("churn phase performed no ops")
	}
	if churn.Sessions == 0 {
		t.Fatal("churn phase drove no sessions")
	}
	if churn.Crashes > 0 && rep.DownLatency.Count == 0 {
		t.Fatalf("%d crashes produced no Down verdict samples", churn.Crashes)
	}
	if rep.LiveMembers < 250 {
		t.Fatalf("population melted to %d live members", rep.LiveMembers)
	}
	t.Logf("churn: %d ops (%d joins %d leaves %d crashes %d revives), %d sessions (%d errs), %d downs %d ups",
		churn.Ops, churn.Joins, churn.Leaves, churn.Crashes, churn.Revives,
		churn.Sessions, churn.SessionErrs, churn.Downs, churn.Ups)

	// Goroutine-leak fence: after Run's teardown everything the swarm
	// started — dapplet pumps, svc dispatchers, probe threads, timer
	// callbacks, netsim shards — must be gone. Poll briefly: runtime
	// bookkeeping for exiting goroutines is asynchronous.
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline+10 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after teardown: %d now vs %d baseline\n%s",
				now, baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSwarmPartitionChurnUnderRace is the gossip-era race fence: a
// ~500-member swarm with verdict quorums, rumor spread, replicated
// directory anti-entropy AND partition injection layered over the same
// churn and session load as TestSwarmChurnUnderRace. Run under -race in
// CI it sweeps the rumour handlers, the quorum state machine and the
// partition driver for data races; the goroutine fence then proves
// every reconcile loop and indirect-probe thread stopped with its dapplet.
func TestSwarmPartitionChurnUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm partition churn test is several seconds long")
	}
	baseline := runtime.NumGoroutine()

	rep, err := Run(context.Background(), Config{
		N:           500,
		Seed:        13,
		DirShards:   2,
		DirReplicas: 2,
		Initiators:  4,
		// Four replicated directory detectors each watch the whole
		// membership, so heartbeat volume scales with N; a 150ms probe
		// interval keeps the run feasible on small CI machines where
		// overload-dropped heartbeats would flap verdicts (and thus
		// expiry writes) faster than anti-entropy can settle them.
		Interval:       150 * time.Millisecond,
		Multiplier:     2,
		GossipInterval: 100 * time.Millisecond,
		PartitionRate:  2,
		PartitionDur:   400 * time.Millisecond,
		ChurnRate:      60,
		SessionRate:    100,
		Duration:       4 * time.Second,
	})
	if err != nil {
		t.Fatalf("swarm run: %v", err)
	}

	churn := rep.Phase("churn")
	if churn.Ops == 0 {
		t.Fatal("churn phase performed no ops")
	}
	if churn.Partitions == 0 {
		t.Fatal("no partitions were injected")
	}
	if churn.GossipRounds == 0 || churn.GossipPulls == 0 {
		t.Fatalf("anti-entropy never ran: rounds=%d pulls=%d", churn.GossipRounds, churn.GossipPulls)
	}
	if rep.LiveMembers < 250 {
		t.Fatalf("population melted to %d live members", rep.LiveMembers)
	}
	if rep.DirConvergeRounds < 0 {
		t.Fatal("directory replicas never converged after churn")
	}
	t.Logf("churn: %d ops, %d partitions, %d downs (%d false), gossip %d rounds %d pulls %d deltas, rumors %d/%d, converged in %d rounds",
		churn.Ops, churn.Partitions, churn.Downs, churn.FalseDowns,
		churn.GossipRounds, churn.GossipPulls, churn.GossipDeltas,
		churn.RumorsSent, churn.RumorsRecv, rep.DirConvergeRounds)

	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline+10 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after teardown: %d now vs %d baseline\n%s",
				now, baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSwarmReportShape pins the report contract a tiny throughput run
// must fill in: both phases present, watch edges counted, and per-dapplet
// footprint computed.
func TestSwarmReportShape(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		N:           64,
		Seed:        3,
		Interval:    50 * time.Millisecond,
		ChurnRate:   40,
		SessionRate: 80,
		Duration:    1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("swarm run: %v", err)
	}
	join := rep.Phase("join")
	if join.Joins != 64 {
		t.Fatalf("join phase recorded %d joins, want 64", join.Joins)
	}
	if rep.WatchedPeers == 0 {
		t.Fatal("no watch edges counted")
	}
	if rep.HeapBytesPerDapplet <= 0 || rep.GoroutinesPerDapplet <= 0 {
		t.Fatalf("footprint not computed: %f B/dapplet, %f goroutines/dapplet",
			rep.HeapBytesPerDapplet, rep.GoroutinesPerDapplet)
	}
	sess := join.Sessions + rep.Phase("churn").Sessions
	if sess == 0 {
		t.Fatal("no sessions recorded")
	}
}
