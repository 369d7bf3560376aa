package repro

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/swarm"
)

// e11Config scales one swarm benchmark run. The detector interval grows
// with the population so the heartbeat fabric's aggregate send rate
// stays within what one simulation process sustains; the verdict
// latency the report measures scales with it.
func e11Config(n int, seed int64) swarm.Config {
	cfg := swarm.Config{
		N:           n,
		Seed:        seed,
		ChurnRate:   float64(n) / 20,
		SessionRate: float64(n) / 10,
		Duration:    5 * time.Second,
	}
	switch {
	case n >= 100_000:
		cfg.Interval = 4 * time.Second
		cfg.RingWatch = 1
		cfg.ChurnRate = 500
		cfg.SessionRate = 1000
		cfg.Duration = 60 * time.Second
	case n >= 10_000:
		cfg.Interval = time.Second
	default:
		cfg.Interval = 250 * time.Millisecond
	}
	return cfg
}

// reportE11 surfaces the swarm report's headline numbers as benchmark
// metrics.
func reportE11(b *testing.B, rep *swarm.Report) {
	b.Helper()
	churn := rep.Phase("churn")
	b.ReportMetric(churn.MsgsPerSec, "msgs/s")
	b.ReportMetric(churn.HeartbeatsPerSec, "hb/s")
	b.ReportMetric(churn.DirHitRate*100, "dirhit%")
	b.ReportMetric(churn.DetectorNsPerPeerSec, "detns/peer/s")
	b.ReportMetric(rep.HeapBytesPerDapplet, "B/dapplet")
	b.ReportMetric(rep.GoroutinesPerDapplet, "goro/dapplet")
	if rep.DownLatency.Count > 0 {
		b.ReportMetric(rep.DownLatency.P50Ms, "down-p50-ms")
	}
}

// BenchmarkE11Swarm runs the swarm-scale churn harness (E11): a member
// population under continuous join/leave/crash/reincarnate churn and
// directory-routed sessions. The 100k population runs only when
// E11_FULL=1 (it holds 60s of churn and several GB of dapplet state);
// wwbench -exp e11 prints the same report as a table.
func BenchmarkE11Swarm(b *testing.B) {
	sizes := []int{1000, 10_000}
	if os.Getenv("E11_FULL") == "1" {
		sizes = append(sizes, 100_000)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := swarm.Run(e11Config(n, int64(42+i)))
				if err != nil {
					b.Fatalf("swarm run melted: %v", err)
				}
				if i == b.N-1 {
					reportE11(b, rep)
				}
			}
		})
	}
}

// BenchmarkE13GossipSmoke is the CI-sized gossip-substrate run (E13): a
// few hundred members with verdict quorums, rumor spread, replicated
// directory anti-entropy and partition injection all active. The
// headline metrics are the false-Down count under partitions and the
// post-churn replica convergence lag in gossip rounds.
func BenchmarkE13GossipSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := swarm.Run(swarm.Config{
			N:              200,
			Seed:           int64(13 + i),
			DirShards:      2,
			DirReplicas:    2,
			Initiators:     2,
			Interval:       150 * time.Millisecond,
			Multiplier:     2,
			Quorum:         2,
			GossipInterval: 100 * time.Millisecond,
			PartitionRate:  2,
			PartitionDur:   400 * time.Millisecond,
			ChurnRate:      25,
			SessionRate:    50,
			Duration:       2 * time.Second,
		})
		if err != nil {
			b.Fatalf("gossip smoke run melted: %v", err)
		}
		if i == b.N-1 {
			churn := rep.Phase("churn")
			b.ReportMetric(float64(churn.Downs), "downs")
			b.ReportMetric(float64(churn.FalseDowns), "false-downs")
			b.ReportMetric(float64(churn.Partitions), "partitions")
			b.ReportMetric(float64(churn.GossipRounds), "rounds")
			b.ReportMetric(float64(churn.GossipDeltas), "deltas")
			b.ReportMetric(float64(rep.DirConvergeRounds), "conv-rounds")
			if rep.DownLatency.Count > 0 {
				b.ReportMetric(rep.DownLatency.P50Ms, "down-p50-ms")
			}
		}
	}
}

// BenchmarkE11SwarmSmoke is the CI-sized E11 run: a few hundred members
// and a short churn window, just enough to prove the harness end to end
// on a small machine.
func BenchmarkE11SwarmSmoke(b *testing.B) {
	n := 256
	if v := os.Getenv("E11_SMOKE_N"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	for i := 0; i < b.N; i++ {
		rep, err := swarm.Run(swarm.Config{
			N:           n,
			Seed:        int64(7 + i),
			Interval:    100 * time.Millisecond,
			ChurnRate:   40,
			SessionRate: 80,
			Duration:    2 * time.Second,
		})
		if err != nil {
			b.Fatalf("swarm smoke run melted: %v", err)
		}
		if i == b.N-1 {
			reportE11(b, rep)
		}
	}
}
