// Command wwbench prints the tables of DESIGN.md's experiment matrix:
// the paper's three figures as runnable scenarios (F1-F3), the
// traditional-vs-session comparison its introduction argues for (T1), and
// a characterization experiment per mechanism the paper specifies
// (E1-E14). Run all experiments or select one with -exp.
//
// Latencies labelled "vlat" are critical-path virtual latencies under the
// configured WAN/LAN delay models (see internal/netsim); wall-clock
// columns measure the simulation itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/netsim"
)

type experiment struct {
	id   string
	desc string
	run  func()
}

var (
	flagShards = flag.Int("shards", 0,
		"delivery shard count for every experiment's network (0 = GOMAXPROCS); 1 makes single-driver runs bit-reproducible per seed")
	flagSeed = flag.Int64("seed", 0,
		"seed override for every experiment's network and workload (0 = per-experiment default)")
	flagCPUProfile = flag.String("cpuprofile", "",
		"write a CPU profile of the selected experiments to this file (go tool pprof)")
	flagMemProfile = flag.String("memprofile", "",
		"write a heap profile taken after the selected experiments to this file (go tool pprof)")
)

// seedOr resolves an experiment's default seed against the -seed flag.
func seedOr(def int64) int64 {
	if *flagSeed != 0 {
		return *flagSeed
	}
	return def
}

// netOpts builds one experiment's network options, applying the global
// -seed and -shards overrides. Extra options are appended after the
// overrides.
func netOpts(defaultSeed int64, extra ...netsim.Option) []netsim.Option {
	opts := []netsim.Option{netsim.WithSeed(seedOr(defaultSeed))}
	if *flagShards > 0 {
		opts = append(opts, netsim.WithShards(*flagShards))
	}
	return append(opts, extra...)
}

// newNet creates one experiment's network with the global overrides
// applied.
func newNet(defaultSeed int64, extra ...netsim.Option) *netsim.Network {
	return netsim.New(netOpts(defaultSeed, extra...)...)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: f1,f2,f3,t1,e1,...,e14 or all")
	flag.Parse()

	experiments := []experiment{
		{"f1", "Figure 1: three-site calendar session (9 members, 3 secretaries)", runF1},
		{"f2", "Figure 2: initiator-driven session setup vs participants", runF2},
		{"f3", "Figure 3: outbox fan-out / fan-in throughput", runF3},
		{"t1", "Traditional sequential negotiation vs session scheduler", runT1},
		{"e1", "Ordered-delivery layer under loss", runE1},
		{"e2", "Token managers: grants and deadlock detection", runE2},
		{"e3", "Clocks: snapshot-criterion violations, stamping cost", runE3},
		{"e4", "Checkpointing: marker vs clock snapshots", runE4},
		{"e5", "RPC over inboxes: sync vs async", runE5},
		{"e6", "Distributed synchronization constructs", runE6},
		{"e7", "Session interference control", runE7},
		{"e9", "Failure detection latency and checkpoint-restore recovery", runE9},
		{"e10", "Replicated directory service: lookup scaling, caching, replica failover", runE10},
		{"e11", "Swarm-scale churn harness: join/leave/crash churn, detector cost, footprint", runE11},
		{"e12", "Batched I/O: frame coalescing, ack piggybacking, mmsg syscall batching", runE12},
		{"e13", "Gossip substrate: verdict-quorum false-positive A/B, directory anti-entropy convergence", runE13},
		{"e14", "Relay-tree multicast: flat vs tree broadcast fan-out at 100/1k/10k participants", runE14},
	}

	if *flagCPUProfile != "" {
		f, err := os.Create(*flagCPUProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *flagMemProfile != "" {
		defer func() {
			f, err := os.Create(*flagMemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(2)
			}
		}()
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		ran = true
		fmt.Printf("=== %s: %s ===\n", strings.ToUpper(e.id), e.desc)
		start := time.Now()
		e.run()
		fmt.Printf("(%s wall clock)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// row prints one formatted table row.
func row(cols ...any) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%v", c)
	}
	fmt.Println("  " + strings.Join(parts, "\t"))
}
