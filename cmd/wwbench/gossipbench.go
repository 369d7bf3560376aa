package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/swarm"
)

var (
	flagE13N = flag.Int("e13n", 300,
		"E13 swarm population under partition injection")
	flagE13Dur = flag.Duration("e13dur", 4*time.Second,
		"E13 churn phase length")
	flagE13PRate = flag.Float64("e13prate", 2,
		"E13 partition injection rate in partitions/sec (each isolates one host, then heals)")
	flagE13Out = flag.String("e13out", "",
		"write both E13 variant reports as JSON to this path")
)

// e13Config builds one E13 variant: the shared population, churn,
// session and partition load, with the gossip substrate on or off.
// With gossip on, every Down needs a quorum of two confirming
// detectors (rumor-assisted) and the replicated directory runs
// anti-entropy; off, a single partitioned witness can commit a Down
// on its own and the replicas never reconcile.
func e13Config(gossip bool) swarm.Config {
	n := *flagE13N
	cfg := swarm.Config{
		N:             n,
		Seed:          seedOr(13),
		DirShards:     2,
		DirReplicas:   2,
		Initiators:    2,
		Interval:      150 * time.Millisecond,
		Multiplier:    2,
		PartitionRate: *flagE13PRate,
		PartitionDur:  400 * time.Millisecond,
		ChurnRate:     float64(n) / 8,
		SessionRate:   float64(n) / 4,
		Duration:      *flagE13Dur,
	}
	if gossip {
		cfg.Quorum = 2
		cfg.GossipInterval = 100 * time.Millisecond
	}
	if *flagShards > 0 {
		cfg.NetShards = *flagShards
	}
	return cfg
}

// runE13 drives the gossip-substrate experiment: the same partitioned,
// churning swarm twice — single-witness verdicts without gossip vs
// quorum verdicts with rumor spread and directory anti-entropy — and
// compares false-Down rates, verdict latency and replica convergence.
// -e13n, -e13dur and -e13prate size the run; -e13out dumps both full
// reports as JSON.
func runE13() {
	variants := []struct {
		name   string
		gossip bool
	}{
		{"single-witness", false},
		{"quorum+gossip", true},
	}
	reports := make(map[string]*swarm.Report, len(variants))

	row("variant", "downs", "false", "false%", "parts", "down-p50-ms", "down-p95-ms", "rounds", "pulls", "deltas", "rumors-s/r", "conv-rounds")
	for _, v := range variants {
		rep, err := swarm.Run(e13Config(v.gossip))
		if err != nil {
			log.Fatalf("%s run: %v", v.name, err)
		}
		reports[v.name] = rep
		churn := rep.Phase("churn")
		falsePct := 0.0
		if churn.Downs > 0 {
			falsePct = 100 * float64(churn.FalseDowns) / float64(churn.Downs)
		}
		row(v.name,
			churn.Downs, churn.FalseDowns, fmt.Sprintf("%.0f", falsePct),
			churn.Partitions,
			fmt.Sprintf("%.1f", rep.DownLatency.P50Ms),
			fmt.Sprintf("%.1f", rep.DownLatency.P95Ms),
			churn.GossipRounds, churn.GossipPulls, churn.GossipDeltas,
			fmt.Sprintf("%d/%d", churn.RumorsSent, churn.RumorsRecv),
			rep.DirConvergeRounds)
	}
	fmt.Println()
	single, quorum := reports["single-witness"], reports["quorum+gossip"]
	row("population", fmt.Sprintf("%d live without gossip vs %d with, of %d",
		single.LiveMembers, quorum.LiveMembers, *flagE13N))
	if quorum.DirConvergeRounds >= 0 {
		row("anti-entropy", fmt.Sprintf("replicas converged %d gossip rounds after churn stopped",
			quorum.DirConvergeRounds))
	} else {
		row("anti-entropy", "replicas did NOT converge within the probe bound")
	}

	if *flagE13Out != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			log.Fatalf("marshal reports: %v", err)
		}
		if err := os.WriteFile(*flagE13Out, data, 0o644); err != nil {
			log.Fatalf("write reports: %v", err)
		}
		fmt.Printf("  (report written to %s)\n", *flagE13Out)
	}
}
