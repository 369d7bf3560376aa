package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/swarm"
)

var (
	flagSwarm = flag.Int("swarm", 2000,
		"E11 swarm population (dapplets under churn); 100000+ needs several GB and a long -swarmdur")
	flagChurn = flag.Float64("churn", 0,
		"E11 churn rate in ops/sec across join/leave/crash/reincarnate (0 = population/20)")
	flagSessRate = flag.Float64("sessrate", 0,
		"E11 initiator session rate in sessions/sec (0 = population/10)")
	flagSwarmDur = flag.Duration("swarmdur", 5*time.Second,
		"E11 churn phase length")
	flagE11Out = flag.String("e11out", "",
		"write the full E11 swarm report as JSON to this path")
	flagCoalesce = flag.Bool("coalesce", true,
		"E11 transport frame coalescing (false reverts to one datagram per frame for an A/B baseline)")
)

// e11SwarmConfig derives the swarm config from the E11 flags, scaling
// the detector interval with the population the same way the
// BenchmarkE11Swarm ladder does so the heartbeat fabric's aggregate
// rate stays sustainable in one process.
func e11SwarmConfig() swarm.Config {
	n := *flagSwarm
	cfg := swarm.Config{
		N:           n,
		Seed:        seedOr(42),
		ChurnRate:   *flagChurn,
		SessionRate: *flagSessRate,
		Duration:    *flagSwarmDur,
		NoCoalesce:  !*flagCoalesce,
	}
	if *flagShards > 0 {
		cfg.NetShards = *flagShards
	}
	switch {
	case n >= 100_000:
		cfg.Interval = 4 * time.Second
		cfg.RingWatch = 1
	case n >= 10_000:
		cfg.Interval = time.Second
	default:
		cfg.Interval = 250 * time.Millisecond
	}
	return cfg
}

// runE11 drives the swarm-scale churn harness: a member population under
// continuous join/leave/crash/reincarnate churn with directory-routed
// sessions, reporting per-phase throughput, transport coalescing factor,
// detector cost per watched peer, verdict latency and per-dapplet
// footprint. -swarm, -churn, -sessrate and -swarmdur size the run;
// -coalesce=false reverts the transport to one datagram per frame for an
// A/B baseline; -e11out dumps the full report as JSON.
func runE11() {
	cfg := e11SwarmConfig()
	rep, err := swarm.Run(cfg)
	if err != nil {
		log.Fatalf("swarm run: %v", err)
	}

	row("phase", "wall-s", "msgs/s", "hb/s", "frm/dgram", "sa-ack%", "dirhit%", "ops", "sessions", "downs", "ups", "det-ns/peer/s")
	for _, p := range rep.Phases {
		row(p.Name,
			fmt.Sprintf("%.1f", p.WallSeconds),
			fmt.Sprintf("%.0f", p.MsgsPerSec),
			fmt.Sprintf("%.0f", p.HeartbeatsPerSec),
			fmt.Sprintf("%.2f", p.FramesPerDatagram),
			fmt.Sprintf("%.0f", p.StandaloneAckRatio*100),
			fmt.Sprintf("%.0f", p.DirHitRate*100),
			p.Ops, p.Sessions, p.Downs, p.Ups,
			fmt.Sprintf("%.0f", p.DetectorNsPerPeerSec))
	}
	fmt.Println()
	row("latency", "count", "p50-ms", "p95-ms", "p99-ms", "max-ms")
	for _, l := range []struct {
		name string
		s    swarm.LatencyStats
	}{{"down-verdict", rep.DownLatency}, {"up-verdict", rep.UpLatency}, {"session", rep.SessionLatency}} {
		row(l.name, l.s.Count,
			fmt.Sprintf("%.1f", l.s.P50Ms), fmt.Sprintf("%.1f", l.s.P95Ms),
			fmt.Sprintf("%.1f", l.s.P99Ms), fmt.Sprintf("%.1f", l.s.MaxMs))
	}
	fmt.Println()
	row("population", fmt.Sprintf("%d live, %d crashed (joined %d, left %d, crashed %d, revived %d)",
		rep.LiveMembers, rep.CrashedMembers, rep.Joined, rep.Left, rep.Crashed, rep.Revived))
	row("watch edges", fmt.Sprintf("%d peers watched, %d wheel timers", rep.WatchedPeers, rep.WheelTimers))
	row("footprint", fmt.Sprintf("%.0f B/dapplet heap, %.2f goroutines/dapplet (%d goroutines)",
		rep.HeapBytesPerDapplet, rep.GoroutinesPerDapplet, rep.Goroutines))

	if *flagE11Out != "" {
		data, err := rep.JSON()
		if err != nil {
			log.Fatalf("marshal report: %v", err)
		}
		if err := os.WriteFile(*flagE11Out, data, 0o644); err != nil {
			log.Fatalf("write report: %v", err)
		}
		fmt.Printf("  (report written to %s)\n", *flagE11Out)
	}
}
