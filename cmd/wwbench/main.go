// Command wwbench prints the tables of DESIGN.md's experiment matrix:
// the paper's three figures as runnable scenarios (F1-F3), the
// traditional-vs-session comparison its introduction argues for (T1), and
// a characterization experiment per mechanism the paper specifies
// (E1-E14). The experiments themselves are defined once, in
// internal/experiment; this command selects some, times their cells and
// prints what they return. `go test -bench BenchmarkExperiment` is the
// other printer over the same registry.
//
// Metrics labelled "vlat" are critical-path virtual latencies under the
// configured WAN/LAN delay models (see internal/netsim); ns/op and the
// other wall-clock columns measure the simulation itself.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/experiment"
)

var (
	flagExp   = flag.String("exp", "all", "experiment to run: f1,f2,f3,t1,e1,...,e14 or all")
	flagScale = flag.String("scale", "std",
		"size of the population-bound experiments (E11-E14): smoke (what CI runs), std (the sizes DESIGN.md quotes), full (adds the 100k swarm and the 10k tree: several GB, several minutes)")
	flagOut    = flag.String("out", "", "write every measured cell as JSON ([{exp, cell, ops, elapsed_ns, metrics: [{name, value}]}]) to this path")
	flagShards = flag.Int("shards", 0,
		"delivery shard count for every experiment's network (0 = GOMAXPROCS); 1 makes single-driver runs bit-reproducible per seed")
	flagSeed = flag.Int64("seed", 0,
		"seed override for every experiment's network and workload (0 = per-experiment default)")
	flagCPUProfile = flag.String("cpuprofile", "",
		"write a CPU profile of the selected experiments to this file (go tool pprof)")
	flagMemProfile = flag.String("memprofile", "",
		"write a heap profile taken after the selected experiments to this file (go tool pprof)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "wwbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	scale, err := experiment.ParseScale(*flagScale)
	if err != nil {
		return err
	}
	params := experiment.Params{Seed: *flagSeed, Shards: *flagShards, Scale: scale}
	selected := slices.DeleteFunc(experiment.All(), func(e experiment.Experiment) bool {
		return *flagExp != "all" && !strings.EqualFold(*flagExp, e.ID)
	})
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", *flagExp)
	}

	if *flagCPUProfile != "" {
		f, err := os.Create(*flagCPUProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var report []experiment.Result
	for _, e := range selected {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Desc)
		start := time.Now()
		var results []experiment.Result
		for _, c := range e.Cells(params) {
			res, err := experiment.Measure(context.Background(), e.ID, c)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		if len(results) == 0 {
			return fmt.Errorf("%s ran no cell", e.ID)
		}
		printTable(results)
		fmt.Printf("(%s wall clock)\n\n", time.Since(start).Round(time.Millisecond))
		report = append(report, results...)
	}

	if *flagMemProfile != "" {
		f, err := os.Create(*flagMemProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	if *flagOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		if err := os.WriteFile(*flagOut, data, 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Printf("(report written to %s)\n", *flagOut)
	}
	return nil
}

// wideTable is the column count past which a table is printed with one
// row per metric and one column per cell instead of the reverse.
const wideTable = 12

// printTable prints one experiment's cells against the union of their
// metric names, in first-seen order.
func printTable(results []experiment.Result) {
	grid := [][]string{{"cell", "ops"}} // cells down, metrics across
	for _, res := range results {
		for _, mt := range res.Metrics {
			if !slices.Contains(grid[0], mt.Name) {
				grid[0] = append(grid[0], mt.Name)
			}
		}
	}
	for _, res := range results {
		row := []string{res.Cell, strconv.Itoa(res.Ops)}
		for _, name := range grid[0][2:] {
			cell := "-"
			if i := slices.IndexFunc(res.Metrics, func(mt experiment.Metric) bool { return mt.Name == name }); i >= 0 {
				cell = formatValue(res.Metrics[i].Value)
			} else if res.Skipped {
				cell = "skipped"
			}
			row = append(row, cell)
		}
		grid = append(grid, row)
	}
	if len(grid[0]) > wideTable {
		transposed := make([][]string, len(grid[0]))
		for i := range transposed {
			for _, row := range grid {
				transposed[i] = append(transposed[i], row[i])
			}
		}
		grid = transposed
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, row := range grid {
		fmt.Fprintln(tw, "  "+strings.Join(row, "\t"))
	}
	tw.Flush()
}

// formatValue prints counts exactly and measurements to three
// significant digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) || math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}
