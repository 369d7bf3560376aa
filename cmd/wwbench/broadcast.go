package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
)

var (
	flagE14Sizes = flag.String("e14sizes", "100,1000,10000",
		"E14 group sizes (comma-separated participant counts) for the flat-vs-tree broadcast A/B")
	flagE14Msgs = flag.Int("e14msgs", 20,
		"E14 broadcasts per run from the origin")
	flagE14Fanout = flag.Int("e14fanout", 0,
		"E14 tree fanout k (0 = relay default)")
	flagE14Payload = flag.Int("e14payload", 64,
		"E14 broadcast payload size in bytes")
	flagE14Out = flag.String("e14out", "",
		"write the full E14 report (both modes at every size) as JSON to this path")
)

// e14Run is one (size, mode) cell of the E14 report.
type e14Run struct {
	Mode string `json:"mode"`
	*scenario.BroadcastResult
}

// runE14 drives the large-group broadcast A/B: at each -e14sizes group
// size, one origin broadcasts -e14msgs payloads first over a flat
// per-destination fan-out, then over the relay spanning tree, and the
// table compares sender cost per message, root wire bytes, delivery
// latency and peak transport queue depth. The run fails loudly on any
// delivery loss or misordering. -e14out dumps every cell as JSON.
func runE14() {
	var sizes []int
	for _, s := range strings.Split(*flagE14Sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			log.Fatalf("bad -e14sizes entry %q", s)
		}
		sizes = append(sizes, n)
	}

	var report []e14Run
	row("n", "mode", "fanout", "depth", "setup-ms", "send-ns/msg", "root-KB", "p50-ms", "p99-ms", "maxq", "delivered")
	for _, n := range sizes {
		msgs := *flagE14Msgs
		if n >= 10_000 && msgs > 10 {
			msgs = 10 // the flat baseline is O(N*M) at the origin; keep the 10k cell tractable
		}
		// A flat session ships the full roster in every invite — O(N²)
		// wire bytes, by contract — so the flat 10k cell needs ~20
		// minutes of setup on a 1-CPU container; that cell is what the
		// hour is for. A tree session ships each participant its O(k)
		// view: the tree 10k cell sets up in seconds (2.5–4.4s measured,
		// 10–13s for the whole cell).
		deadline := 10 * time.Minute
		if n >= 5_000 {
			deadline = time.Hour
		}
		var flat, tree *scenario.BroadcastResult
		for _, mode := range []bool{false, true} {
			res, err := scenario.RunBroadcast(context.Background(), scenario.BroadcastOptions{
				Participants: n,
				Messages:     msgs,
				PayloadBytes: *flagE14Payload,
				Fanout:       *flagE14Fanout,
				Tree:         mode,
				Seed:         seedOr(14),
				Shards:       *flagShards,
				Deadline:     deadline,
			})
			if err != nil {
				log.Fatalf("e14 n=%d tree=%v: %v", n, mode, err)
			}
			name := "flat"
			if mode {
				name = "tree"
				tree = res
			} else {
				flat = res
			}
			report = append(report, e14Run{Mode: name, BroadcastResult: res})
			row(n, name, res.Fanout, res.Depth,
				fmt.Sprintf("%.1f", float64(res.Setup.Microseconds())/1000),
				fmt.Sprintf("%.0f", res.SenderNsPerMsg),
				fmt.Sprintf("%.1f", float64(res.RootBytesOut)/1024),
				fmt.Sprintf("%.2f", float64(res.P50.Microseconds())/1000),
				fmt.Sprintf("%.2f", float64(res.P99.Microseconds())/1000),
				res.MaxQueueDepth, res.Delivered)
		}
		row("", fmt.Sprintf("tree vs flat: %.1fx sender ns/msg, %.1fx root bytes",
			flat.SenderNsPerMsg/tree.SenderNsPerMsg,
			float64(flat.RootBytesOut)/float64(tree.RootBytesOut)))
	}

	if *flagE14Out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatalf("marshal report: %v", err)
		}
		if err := os.WriteFile(*flagE14Out, data, 0o644); err != nil {
			log.Fatalf("write report: %v", err)
		}
		fmt.Printf("  (report written to %s)\n", *flagE14Out)
	}
}
